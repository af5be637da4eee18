"""End-to-end tests for ``repro batch`` (the service CLI surface)."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.qasm import to_openqasm
from repro.workloads import ghz, random_circuit


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def manifest_dir(tmp_path):
    for i, seed in enumerate([1, 2]):
        circuit = random_circuit(5, 12, seed=seed, two_qubit_fraction=0.6)
        (tmp_path / f"c{i}.qasm").write_text(to_openqasm(circuit))
    manifest = {
        "defaults": {"router": "sabre"},
        "circuits": ["c0.qasm", "c1.qasm"],
        "devices": ["ibm_qx4"],
        "routers": ["sabre", "astar"],
        "jobs": [
            {
                "circuit": "c0.qasm",
                "device": "ibm_qx4",
                "config": {"router": "naive"},
                "id": "explicit/naive",
            }
        ],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path


class TestBatchManifest:
    def test_end_to_end_with_cache_and_report(self, manifest_dir):
        cache_dir = manifest_dir / "cache"
        report_path = manifest_dir / "report.json"
        code, text = _run(
            [
                "batch",
                str(manifest_dir / "manifest.json"),
                "--cache-dir",
                str(cache_dir),
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        assert "5/5 ok" in text
        assert "explicit/naive" in text
        assert "c1.qasm@ibm_qx4/astar" in text

        report = json.loads(report_path.read_text())
        assert report["summary"] == {
            "total": 5,
            "ok": 5,
            "statuses": {"ok": 5},
            "seconds": report["summary"]["seconds"],
            "throughput": report["summary"]["throughput"],
        }
        assert len(report["jobs"]) == 5
        assert all(j["status"] == "ok" for j in report["jobs"])
        assert report["service_stats"]["cache"]["puts"] == 5
        assert list(cache_dir.glob("*.json"))

        # Second run over the same cache dir: everything from disk.
        code, text = _run(
            [
                "batch",
                str(manifest_dir / "manifest.json"),
                "--cache-dir",
                str(cache_dir),
            ]
        )
        assert code == 0
        assert "hit rate 100%" in text
        assert text.count(" disk ") == 5

    def test_limit(self, manifest_dir):
        code, text = _run(
            ["batch", str(manifest_dir / "manifest.json"), "--limit", "2"]
        )
        assert code == 0
        assert "2/2 ok" in text

    def test_no_cache_flag(self, manifest_dir):
        for _ in range(2):
            code, text = _run(
                ["batch", str(manifest_dir / "manifest.json"), "--no-cache"]
            )
            assert code == 0
            assert "hit rate 0%" in text

    def test_explicit_jobs_only_manifest(self, tmp_path):
        (tmp_path / "ghz.qasm").write_text(to_openqasm(ghz(4)))
        manifest = {
            "jobs": [
                {"circuit": "ghz.qasm", "device": "ibm_qx4"},
                {
                    "circuit": "ghz.qasm",
                    "device": "ibm_qx5",
                    "config": {"router": "astar", "schedule": None},
                },
            ]
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        code, text = _run(["batch", str(path)])
        assert code == 0
        assert "2/2 ok" in text

    def test_device_json_file_in_manifest(self, tmp_path):
        from repro.devices import get_device

        (tmp_path / "chip.json").write_text(
            json.dumps(get_device("ibm_qx4").to_dict())
        )
        (tmp_path / "ghz.qasm").write_text(to_openqasm(ghz(3)))
        manifest = {"circuits": ["ghz.qasm"], "devices": ["chip.json"]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        code, text = _run(["batch", str(path)])
        assert code == 0
        assert "1/1 ok" in text


class TestBatchResilienceFlags:
    def test_inline_fault_plan_degrades_but_exits_zero(self, manifest_dir):
        # A raise-fault on every sabre routing attempt degrades those
        # jobs to the fallback router; degraded counts as completed, so
        # the exit code stays 0 and the summary breaks statuses down.
        plan = json.dumps({
            "faults": [{"stage": "routing", "action": "raise",
                        "router": "sabre", "times": None}],
        })
        code, text = _run(
            [
                "batch",
                str(manifest_dir / "manifest.json"),
                "--jobs", "1",
                "--faults", plan,
            ]
        )
        assert code == 0
        assert "degraded" in text
        assert "5/5 ok" not in text

    def test_fault_plan_file(self, manifest_dir):
        path = manifest_dir / "plan.json"
        path.write_text(json.dumps({
            "faults": [{"stage": "routing", "action": "raise",
                        "router": "sabre", "times": None}],
        }))
        code, text = _run(
            [
                "batch",
                str(manifest_dir / "manifest.json"),
                "--jobs", "1",
                "--faults", str(path),
            ]
        )
        assert code == 0
        assert "degraded" in text

    def test_bad_fault_plan_is_usage_error(self, manifest_dir, capsys):
        code, _ = _run(
            [
                "batch",
                str(manifest_dir / "manifest.json"),
                "--faults", '{"faults": [{"stage": "x", "action": "bad"}]}',
            ]
        )
        assert code == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_deadline_flag_accepted(self, manifest_dir):
        # A generous deadline must not change outcomes; jobs stay ok.
        code, text = _run(
            [
                "batch",
                str(manifest_dir / "manifest.json"),
                "--jobs", "1",
                "--deadline", "30",
            ]
        )
        assert code == 0
        assert "5/5 ok" in text


class TestNumericFlags:
    @pytest.mark.parametrize("argv", [
        ["batch", "--corpus", "perf", "--deadline", "-1"],
        ["batch", "--corpus", "perf", "--timeout", "-1"],
        ["batch", "--corpus", "perf", "--batch-timeout", "-1"],
        ["batch", "--corpus", "perf", "--deadline", "nan"],
        ["batch", "--corpus", "perf", "--timeout", "inf"],
        ["batch", "--corpus", "perf", "--limit", "-1"],
        ["batch", "--corpus", "perf", "--limit", "0"],
        ["serve", "--timeout", "-1"],
        ["serve", "--deadline", "nan"],
    ], ids=" ".join)
    def test_bad_number_is_usage_error(self, argv, capsys):
        # Regression: negative budgets ended in a traceback, and
        # --limit -1 silently dropped the last job.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: expected" in err

    def test_zero_budgets_accepted(self):
        args = build_parser().parse_args(
            ["batch", "--corpus", "perf", "--deadline", "0", "--timeout", "0"]
        )
        assert args.deadline == 0.0 and args.timeout == 0.0


class TestBatchErrors:
    def test_missing_manifest(self, capsys):
        code, _ = _run(["batch", "/nonexistent/manifest.json"])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_manifest_job_with_negative_timeout(self, tmp_path, capsys):
        (tmp_path / "c.qasm").write_text(to_openqasm(ghz(3)))
        (tmp_path / "m.json").write_text(json.dumps({"jobs": [
            {"circuit": "c.qasm", "device": "ibm_qx4", "timeout": -1},
        ]}))
        code, _ = _run(["batch", str(tmp_path / "m.json")])
        assert code == 2
        assert "invalid manifest job" in capsys.readouterr().err

    def test_invalid_manifest_json(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("{broken")
        code, _ = _run(["batch", str(path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_manifest_with_missing_circuit(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"circuits": ["nope.qasm"], "devices": ["ibm_qx4"]})
        )
        code, _ = _run(["batch", str(path)])
        assert code == 2
        assert "nope.qasm" in capsys.readouterr().err

    def test_manifest_with_unknown_device(self, tmp_path, capsys):
        (tmp_path / "ghz.qasm").write_text(to_openqasm(ghz(3)))
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"circuits": ["ghz.qasm"], "devices": ["sycamore"]})
        )
        code, _ = _run(["batch", str(path)])
        assert code == 2
        assert "sycamore" in capsys.readouterr().err

    def test_no_manifest_and_no_corpus(self, capsys):
        code, _ = _run(["batch"])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_bad_qasm_job_gives_nonzero_exit(self, tmp_path):
        (tmp_path / "bad.qasm").write_text("this is not qasm")
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"circuits": ["bad.qasm"], "devices": ["ibm_qx4"]})
        )
        code, text = _run(["batch", str(path)])
        assert code == 4
        assert "0/1 ok" in text
        assert "error:" in text

    def test_gate_with_wrong_operands_fails_only_its_job(self, tmp_path):
        # Regression: "cx q[0];" crashed the whole batch with a traceback
        # instead of reporting that one job as invalid.
        (tmp_path / "good.qasm").write_text(to_openqasm(ghz(3)))
        (tmp_path / "bad.qasm").write_text(
            "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n"
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"circuits": ["good.qasm", "bad.qasm"], "devices": ["ibm_qx4"]}
        ))
        report_path = tmp_path / "r.json"
        code, text = _run(
            ["batch", str(path), "--jobs", "1", "--json", str(report_path)]
        )
        assert code == 4
        assert "1/2 ok" in text
        jobs = {
            j["job_id"].split("@")[0]: j
            for j in json.loads(report_path.read_text())["jobs"]
        }
        assert jobs["good.qasm"]["status"] == "ok"
        assert jobs["bad.qasm"]["status"] == "invalid"
        assert "line 3" in jobs["bad.qasm"]["error"]


    @pytest.mark.parametrize(
        "param", ["1/0", "-" * 5000 + "1", "1e400"],
        ids=["div0", "signs", "1e400"],
    )
    def test_parameter_arithmetic_error_fails_only_its_job(
        self, tmp_path, param
    ):
        # Regression: these crashed the whole batch with a traceback, or
        # (1e400) compiled "ok" with an infinite angle.
        (tmp_path / "good.qasm").write_text(to_openqasm(ghz(3)))
        (tmp_path / "bad.qasm").write_text(
            f"OPENQASM 2.0;\nqreg q[2];\nrx({param}) q[0];\n"
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"circuits": ["good.qasm", "bad.qasm"], "devices": ["ibm_qx4"]}
        ))
        report_path = tmp_path / "r.json"
        code, text = _run(
            ["batch", str(path), "--jobs", "1", "--json", str(report_path)]
        )
        assert code == 4
        assert "1/2 ok" in text
        jobs = {
            j["job_id"].split("@")[0]: j
            for j in json.loads(report_path.read_text())["jobs"]
        }
        assert jobs["good.qasm"]["status"] == "ok"
        assert jobs["bad.qasm"]["status"] == "invalid"
        assert "line 3, col 1" in jobs["bad.qasm"]["error"]


class TestBatchCorpus:
    def test_perf_corpus_limited(self, tmp_path):
        report_path = tmp_path / "r.json"
        code, text = _run(
            [
                "batch",
                "--corpus",
                "perf",
                "--limit",
                "5",
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        assert "5/5 ok" in text
        from repro.perf import corpus_jobs

        report = json.loads(report_path.read_text())
        assert report["summary"]["ok"] == 5
        # Report order is the deterministic corpus order.
        assert [j["job_id"] for j in report["jobs"]] == [
            j.job_id for j in corpus_jobs(5)
        ]
