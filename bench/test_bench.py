"""Tests of the benchmark itself: ``python -m pytest bench/ -q``.

* every workload, in a one-round smoke, prints every metric named in
  ``BENCHMARK.json`` with its unit, in both trace modes;
* the output checker rejects a CNOT moved onto a non-edge and a
  non-native gate, and accepts (and simulates) real compiler output;
* the host-speed probe rescales a job by the probes taken around it;
* ``compare.py`` flags a 20% ``job_ms_p50`` regression and a single
  added SWAP, and passes two identical result sets;
* ``run.py`` refuses to run without the program next to it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import compare  # noqa: E402
import hostspeed  # noqa: E402
from repro.core.circuit import Circuit  # noqa: E402
from repro.core.gates import Gate  # noqa: E402
from repro.core.pipeline import PassConfig, compile_with_config  # noqa: E402
from repro.devices import heavy_hex_device, ibm_qx5  # noqa: E402
from repro.workloads import random_circuit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LIBRARY = ("small_devices", "large_devices", "algorithms")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, tmp_path):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", workload, "--seconds", "1", "--rounds", "1",
                    "--trace", str(trace), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr + proc.stdout
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.split()[1:2] == [name] and line.endswith(unit)
                       for line in proc.stdout.splitlines()), name
        if trace and workload in LIBRARY:
            shares = sum(last["metrics"][f"{layer}.share"]["value"]
                         for layer in ("placement", "routing", "lower",
                                       "schedule"))
            unattributed = last["metrics"]["pipeline.unattributed_share"]
            assert shares + unattributed["value"] == pytest.approx(1, abs=0.02)
    results = sorted(tmp_path.glob("*.json"))
    assert any(p.name.endswith(".trace.json") for p in results)
    raw = json.loads(next(p for p in results
                          if not p.name.endswith(".trace.json")).read_text())
    for key in ("nproc", "python", "cc", "native_kernel", "git_sha",
                "git_dirty", "seed", "seconds"):
        assert key in raw["provenance"]


@pytest.fixture(scope="module")
def compiled():
    device = ibm_qx5()
    circuit = random_circuit(6, 40, seed=3, two_qubit_fraction=0.6)
    return compile_with_config(circuit, device, PassConfig(router="sabre"))


def test_checker_accepts_compiler_output(compiled):
    assert check.native_problems(compiled.native, compiled.device) == []
    assert check.equivalent(compiled)


def test_checker_rejects_cnot_on_non_edge(compiled):
    device = compiled.device
    gates = list(compiled.native.gates)
    i = next(k for k, g in enumerate(gates) if g.name == "cnot")
    a, b = next(
        (a, b) for a in range(device.num_qubits)
        for b in range(device.num_qubits)
        if a != b and (a, b) not in device.edges
    )
    gates[i] = Gate("cnot", (a, b))
    bad = Circuit(compiled.native.num_qubits).extend(gates)
    problems = check.native_problems(bad, device)
    assert len(problems) == 1 and "not on a directed edge" in problems[0]


def test_checker_rejects_non_native_gate(compiled):
    bad = compiled.native.copy()
    bad.h(0)
    problems = check.native_problems(bad, compiled.device)
    assert len(problems) == 1 and "h is not native" in problems[0]


def test_checker_rejects_inequivalent_output(compiled):
    gates = list(compiled.native.gates)
    del gates[max(k for k, g in enumerate(gates) if g.name == "cnot")]
    broken = dataclasses.replace(
        compiled, native=Circuit(compiled.native.num_qubits).extend(gates)
    )
    assert not check.equivalent(broken)


def test_equivalence_compacts_large_devices():
    device = heavy_hex_device(7, 14)
    result = compile_with_config(
        random_circuit(8, 40, seed=117, two_qubit_fraction=0.6), device
    )
    native, start, end = check.compact(
        result.native, result.routed.initial, result.routed.final, 8
    )
    assert native.num_qubits <= 20 < device.num_qubits
    assert check.equivalent(result)


def test_host_speed_uses_the_probes_around_a_job():
    speed = hostspeed.HostSpeed()
    speed.at = [0.0, 1.0, 1.2, 10.0]
    speed.took = [0.006, 0.003, 0.005, 0.0015]
    ref = hostspeed.REFERENCE_S
    # Probes within WINDOW_S of [0.9, 1.0]: the ones at 1.0 and 1.2.
    assert speed.scale(0.9, 1.0) == pytest.approx(ref / 0.004)
    assert speed.scale(-0.1, 0.1) == pytest.approx(ref / 0.006)
    # None within reach: the nearest probe to the job's middle.
    assert speed.scale(8.0, 8.5) == pytest.approx(ref / 0.0015)
    speed.sample()
    assert len(speed.took) == 5 and speed.took[-1] > 0


def _write_runs(directory: Path, p50: float, swaps: int = 500) -> None:
    directory.mkdir()
    for seed in range(10):
        metrics = {
            m["name"]: {"value": 100.0 + seed * 0.1, "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
        metrics["ok_frac"]["value"] = 1.0
        metrics["job_ms_p50"]["value"] = p50 + seed * 0.1
        metrics["added_swaps"]["value"] = swaps
        (directory / f"small_devices-s{seed}.json").write_text(json.dumps({
            "workload": "small_devices", "seed": seed, "metrics": metrics,
            "provenance": {"trace": 0, "started": f"2026-01-01T00:00:{seed:02d}Z"},
        }))


def test_compare_passes_identical_runs(tmp_path, capsys):
    _write_runs(tmp_path / "parent", 20.0)
    _write_runs(tmp_path / "change", 20.0)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert "worse" not in capsys.readouterr().out


def test_compare_flags_p50_regression(tmp_path, capsys):
    _write_runs(tmp_path / "parent", 20.0)
    _write_runs(tmp_path / "change", 20.0 * 1.2)
    code = compare.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                         "--claim", "job_ms_p50@small_devices"])
    out = capsys.readouterr().out
    assert code == 1
    row = next(line for line in out.splitlines() if " job_ms_p50 " in line)
    assert row.endswith("worse")
    assert sum(line.endswith("worse") for line in out.splitlines()) == 1
    assert "claim job_ms_p50@small_devices: NOT met" in out


def test_compare_counts_are_exact(tmp_path, capsys):
    _write_runs(tmp_path / "parent", 20.0, swaps=500)
    _write_runs(tmp_path / "change", 20.0, swaps=501)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    worse = [line for line in capsys.readouterr().out.splitlines()
             if line.endswith("worse")]
    assert len(worse) == 1 and " added_swaps " in worse[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = _run("--workload", "small_devices", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
