"""Optimised lowering outputs pinned against frozen goldens.

The ``algorithms`` benchmark workload at seed 0 (the circuits and pass
configs of ``bench/inputs.py``, rebuilt here from :mod:`repro.workloads`)
compiles with ``optimize=True``, so its outputs run every lowering pass:
decomposition, direction fixing, the peephole passes and single-qubit
fusion.  :func:`tests.lowering_goldens.load` gives each output's gate
sequence and angles.  A change of any decision (a gate kept, dropped,
merged or emitted differently) changes the sequence and fails here; the
angles must agree within 1e-9 modulo 2*pi, as
:func:`tests.lowering_compare.assert_same_up_to_rounding` defines it.

Also here: optimised output must not depend on the BLAS kernel numpy
loads.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import Circuit
from repro.core.gates import Gate
from repro.core.pipeline import PassConfig, compile_with_config
from repro.devices import ibm_qx5, surface17
from repro.workloads import (
    cuccaro_adder,
    ghz,
    grover,
    hardware_efficient_ansatz,
    qft,
    quantum_volume_layers,
)

from .lowering_compare import assert_same_up_to_rounding
from .lowering_goldens import load

_DEVICES = {"ibm_qx5": ibm_qx5, "surface17": surface17}


#: The workload's circuits at seed 0, keyed by ``circuit.name`` as in
#: the benchmark's job ids, with the routers each runs with (A* exceeds
#: its per-layer expansion budget on QV layers).
_CIRCUITS = {
    "qft10": (lambda: qft(10), ("sabre", "astar")),
    "qft16": (lambda: qft(16), ("sabre", "astar")),
    "ghz16": (lambda: ghz(16), ("sabre", "astar")),
    "adder3": (lambda: cuccaro_adder(3), ("sabre", "astar")),
    "adder7": (lambda: cuccaro_adder(7), ("sabre", "astar")),
    "hea16x4": (lambda: hardware_efficient_ansatz(16, 4, seed=0), ("sabre", "astar")),
    "grover3_m0": (lambda: grover(3, 0), ("sabre", "astar")),
    "qv16x10s0": (lambda: quantum_volume_layers(16, 10, seed=0), ("sabre",)),
}


def jobs() -> list[str]:
    """The workload's job ids, ``<device>/<circuit>/<router>``."""
    return [
        f"{dev}/{name}/{router}"
        for dev in _DEVICES
        for name, (_, routers) in _CIRCUITS.items()
        for router in routers
    ]


def lowered(job_id: str) -> Circuit:
    """The native circuit the pipeline produces for ``job_id``."""
    dev, name, router = job_id.split("/")
    circuit = _CIRCUITS[name][0]()
    config = PassConfig(router=router, optimize=True)
    return compile_with_config(circuit, _DEVICES[dev](), config).native


def as_entries(circuit: Circuit) -> list:
    """``[name, qubits, params, condition]`` of every gate."""
    return [
        [g.name, list(g.qubits), list(g.params),
         list(g.condition) if g.condition else None]
        for g in circuit.gates
    ]


def _from_entries(num_qubits: int, entries: list) -> Circuit:
    return Circuit(num_qubits, [
        Gate(name, tuple(qubits), tuple(params),
             tuple(condition) if condition else None)
        for name, qubits, params, condition in entries
    ])


@pytest.fixture(scope="module")
def goldens():
    return load()


def test_goldens_cover_every_job(goldens):
    assert sorted(goldens) == sorted(jobs())


@pytest.mark.parametrize("job_id", sorted(jobs()))
def test_lowering_matches_golden(job_id, goldens):
    got = lowered(job_id)
    assert_same_up_to_rounding(got, _from_entries(got.num_qubits, goldens[job_id]))


def _openblas_x86() -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26: no machine-readable config
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


_GROVER_QASM = """
from repro.core.pipeline import PassConfig, compile_with_config
from repro.devices import ibm_qx5
from repro.qasm import to_openqasm
from repro.workloads import grover
result = compile_with_config(
    grover(3, 0), ibm_qx5(), PassConfig(router="sabre", optimize=True)
)
print(to_openqasm(result.native))
"""


@pytest.mark.skipif(not _openblas_x86(), reason="needs numpy on OpenBLAS, x86-64")
def test_optimized_output_does_not_depend_on_the_blas_kernel():
    source = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for coretype in (None, "Prescott"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [source] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        done = subprocess.run(
            [sys.executable, "-c", _GROVER_QASM], env=env,
            capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0].count("\n") > 50
    assert outputs[0] == outputs[1]
