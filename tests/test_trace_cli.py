"""Tests for the --trace CLI plumbing and the trace summarize command."""

import io
import json

import pytest

from repro.cli import main
from repro.obs import load_trace

QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
cx q[0],q[2];
cx q[1],q[3];
cx q[0],q[4];
h q[2];
cx q[2],q[4];
"""


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "circ.qasm"
    path.write_text(QASM)
    return path


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestMapTrace:
    def test_map_writes_chrome_trace(self, qasm_file, tmp_path):
        trace_path = tmp_path / "map.trace.json"
        code, text = _run(
            ["map", str(qasm_file), "--device", "ibm_qx5",
             "--trace", str(trace_path)]
        )
        assert code == 0
        assert str(trace_path) in text
        doc = load_trace(trace_path)
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"pipeline", "placement", "routing", "schedule"} <= cats

    def test_map_without_trace_writes_nothing(self, qasm_file, tmp_path):
        code, _ = _run(["map", str(qasm_file), "--device", "ibm_qx5"])
        assert code == 0
        assert list(tmp_path.glob("*.trace.json")) == []


class TestBatchTrace:
    def test_batch_trace_and_report(self, tmp_path):
        trace_path = tmp_path / "batch.trace.json"
        json_path = tmp_path / "batch.json"
        code, _ = _run(
            ["batch", "--corpus", "perf", "--limit", "4",
             "--trace", str(trace_path), "--json", str(json_path)]
        )
        assert code == 0
        doc = load_trace(trace_path)
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"service", "cache", "pipeline", "routing"} <= cats
        report = json.loads(json_path.read_text())
        trace_report = report["trace"]
        assert len(trace_report["jobs"]) == 4
        for row in trace_report["jobs"]:
            assert row["total_s"] > 0 and "routing" in row["passes"]

    def test_batch_pool_trace_merges_worker_spans(self, tmp_path):
        trace_path = tmp_path / "pool.trace.json"
        code, _ = _run(
            ["batch", "--corpus", "perf", "--limit", "4", "--jobs", "2",
             "--trace", str(trace_path)]
        )
        assert code == 0
        doc = load_trace(trace_path)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in spans}
        assert len(pids) >= 2  # parent (cache spans) + worker (job spans)


class TestTraceSummarize:
    def test_summarize_prints_per_pass_table(self, qasm_file, tmp_path):
        trace_path = tmp_path / "t.json"
        _run(["map", str(qasm_file), "--device", "ibm_qx5",
              "--trace", str(trace_path)])
        code, text = _run(["trace", "summarize", str(trace_path)])
        assert code == 0
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["pass", "spans", "total_s"]
        table_passes = {ln.split()[0] for ln in lines[1:] if ln.strip()}
        assert {"pipeline", "placement", "routing"} <= table_passes

    def test_summarize_missing_file_errors(self, tmp_path, capsys):
        code, _ = _run(["trace", "summarize", str(tmp_path / "absent.json")])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_summarize_rejects_non_trace_json(self, tmp_path, capsys):
        path = tmp_path / "not_trace.json"
        path.write_text('{"hello": 1}')
        code, _ = _run(["trace", "summarize", str(path)])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_summarize_empty_trace(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}')
        code, text = _run(["trace", "summarize", str(path)])
        assert code == 0
        assert "no spans" in text
