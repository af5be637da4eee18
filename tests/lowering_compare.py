"""Comparing lowered circuits up to floating-point rounding.

Used by the lowering goldens and by the tests against the numpy
implementations the scalar lowering replaced.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim import allclose_up_to_global_phase

__all__ = ["ILL_CONDITIONED_THETA", "assert_same_up_to_rounding"]

#: Below this Euler angle theta = 2*acos(|u00|), rounding alone can move
#: the angles by more than 1e-9: k ulps of |u00| move theta by about
#: 4.4e-16 * k / theta (up to ~3e-8 at theta = 0, where acos loses half
#: the digits), and as theta -> 0 phi and lam stop being separately
#: defined (only their sum is).  The numpy code had this too: its output
#: changed with the BLAS kernel and numpy's SIMD level.
ILL_CONDITIONED_THETA = 1e-5


def _single_qubit_runs(circuit):
    """Run id of every single-qubit unitary: maximal runs per wire."""
    every = tuple(range(circuit.num_qubits))
    open_runs, run_of = {}, {}
    for index, gate in enumerate(circuit.gates):
        if gate.is_unitary and len(gate.qubits) == 1:
            run_of[index] = open_runs.setdefault(gate.qubits[0], index)
            continue
        for q in gate.qubits or every:
            open_runs.pop(q, None)
    return run_of


def _run_unitary(circuit, indices):
    matrix = np.eye(2, dtype=complex)
    for index in indices:
        matrix = circuit.gates[index].matrix() @ matrix
    return matrix


def assert_same_up_to_rounding(got, want):
    """Same gate sequence; every angle within 1e-9 modulo 2*pi.

    The one exception is a single-qubit run holding a ``u`` or ``ry``
    whose theta is below :data:`ILL_CONDITIONED_THETA` on both sides:
    there the run's unitary must agree up to global phase within 1e-7.
    """
    assert [(g.name, g.qubits, g.condition) for g in got.gates] == [
        (g.name, g.qubits, g.condition) for g in want.gates
    ]
    runs = _single_qubit_runs(want)
    loose = set()
    for index, (a, b) in enumerate(zip(got.gates, want.gates)):
        for x, y in zip(a.params, b.params):
            if abs(math.remainder(x - y, 2.0 * math.pi)) > 1e-9:
                assert index in runs, (a, b)
                loose.add(runs[index])
    for run in loose:
        members = [i for i, r in runs.items() if r == run]
        for circuit in (got, want):
            assert any(
                circuit.gates[i].name in ("u", "ry")
                and abs(math.remainder(circuit.gates[i].params[0], 2.0 * math.pi))
                < ILL_CONDITIONED_THETA
                for i in members
            ), [want.gates[i] for i in members]
        assert allclose_up_to_global_phase(
            _run_unitary(got, members), _run_unitary(want, members), atol=1e-7
        )
