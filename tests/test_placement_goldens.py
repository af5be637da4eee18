"""Placer outputs pinned against frozen goldens.

The router fingerprints of :mod:`tests.seed_baseline` route with the
trivial placement, so they say nothing about what the placers return.
This module recomputes ``prog_to_phys()`` (dummy positions included) of
:func:`assignment_placement`, :func:`annealing_placement` (seed 0) and
:func:`noise_aware_placement` (edge errors from
``NoiseModel.with_random_edge_errors(device, seed=0)``) on every
instance below and compares it with :data:`tests.placement_goldens.GOLDENS`.

Instances: the router corpus of :data:`repro.perf.CORPUS` plus its 12q60g
variant circuit, the 80-119-qubit programs of the large corpus and the
benchmark, and the algorithm circuits of :mod:`repro.workloads` on QX5
and Surface-17.  Circuits with gates on more than two qubits are lowered
first, as :func:`repro.core.pipeline.compile_circuit` does before
placement.
"""

from __future__ import annotations

import pytest

from repro.decompose import decompose_circuit
from repro.devices import grid_device, heavy_hex_device, ibm_qx5, linear_device, surface17
from repro.mapping.placement import (
    annealing_placement,
    assignment_placement,
    noise_aware_placement,
)
from repro.sim.noise import NoiseModel
from repro.workloads import (
    cuccaro_adder,
    ghz,
    grover,
    hardware_efficient_ansatz,
    qft,
    quantum_volume_layers,
    random_circuit,
)

from .placement_goldens import GOLDENS

_DEVICES = {
    "ibm_qx5": ibm_qx5,
    "grid44": lambda: grid_device(4, 4),
    "linear9": lambda: linear_device(9),
    "surface17": surface17,
    "grid8x10": lambda: grid_device(8, 10),
    "grid10x10": lambda: grid_device(10, 10),
    "heavyhex119": lambda: heavy_hex_device(7, 14),
}

#: (device, qubits, gates, seed) of ``random_circuit(..., two_qubit_fraction=0.6)``.
_RANDOM = (
    ("ibm_qx5", 12, 30, 11),
    ("ibm_qx5", 12, 120, 120),
    ("ibm_qx5", 16, 80, 5),
    ("grid44", 16, 100, 7),
    ("grid44", 10, 60, 3),
    ("linear9", 9, 50, 2),
    ("surface17", 12, 70, 13),
    ("ibm_qx5", 12, 60, 42),
    ("grid8x10", 8, 40, 121),
    ("grid8x10", 12, 40, 21),
    ("grid10x10", 8, 40, 109),
    ("grid10x10", 12, 40, 9),
    ("heavyhex119", 8, 40, 117),
    ("heavyhex119", 12, 40, 17),
    ("heavyhex119", 12, 30, 17),
)

_ALGORITHMS = {
    "qft10": lambda: qft(10),
    "qft16": lambda: qft(16),
    "ghz16": lambda: ghz(16),
    "adder3": lambda: cuccaro_adder(3),
    "adder7": lambda: cuccaro_adder(7),
    "ansatz16x4": lambda: hardware_efficient_ansatz(16, 4, seed=0),
    "grover3": lambda: grover(3, 0),
    "qv16x10": lambda: quantum_volume_layers(16, 10, seed=0),
}

_PLACERS = {
    "assignment": assignment_placement,
    "annealing": lambda circuit, device: annealing_placement(circuit, device, seed=0),
    "noise_aware": lambda circuit, device: noise_aware_placement(
        circuit, device, NoiseModel.with_random_edge_errors(device, seed=0)
    ),
}


def instances():
    """``{name: (circuit_factory, device_name)}`` of every golden instance."""
    found = {}
    for dev, nq, ng, seed in _RANDOM:
        found[f"{dev}/{nq}q{ng}g_s{seed}"] = (
            lambda nq=nq, ng=ng, seed=seed: random_circuit(
                nq, ng, seed=seed, two_qubit_fraction=0.6
            ),
            dev,
        )
    for dev in ("ibm_qx5", "surface17"):
        for name, factory in _ALGORITHMS.items():
            found[f"{dev}/{name}"] = (factory, dev)
    return found


def placed(placer: str, instance: str) -> list[int]:
    """``prog_to_phys()`` of ``placer`` on ``instance``."""
    factory, dev = instances()[instance]
    device = _DEVICES[dev]()
    circuit = factory()
    if any(len(g.qubits) > 2 for g in circuit.gates):
        circuit = decompose_circuit(circuit, device)
    return _PLACERS[placer](circuit, device).prog_to_phys()


_CASES = [
    (placer, instance) for placer in _PLACERS for instance in instances()
]


def test_goldens_cover_every_case():
    assert sorted(GOLDENS) == sorted(f"{p}/{i}" for p, i in _CASES)


@pytest.mark.parametrize(("placer", "instance"), _CASES)
def test_placer_matches_golden(placer, instance):
    assert placed(placer, instance) == GOLDENS[f"{placer}/{instance}"]
