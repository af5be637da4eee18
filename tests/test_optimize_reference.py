"""The peephole passes against copies of the implementations they replaced.

:func:`cancel_inverse_pairs` and :func:`merge_rotations` are each one
forward sweep over an array holding the last gate on each wire;
:func:`optimize_circuit` hands plain gate lists from pass to pass,
removes identities once, and threads one pair of fusion tables through
its rounds; fusion computes each distinct gate object's entries and
synthesises each distinct (qubit, run product) once per call.
:mod:`tests.optimize_reference` holds the earlier passes, which rebuilt
per-wire successor links for every sweep and synthesised every run.

Both sides must return the same gates, compared by ``repr`` (so ``0.0``
against ``-0.0`` counts, and so does the last bit of an angle), on a
circuit of the same width and name, or raise the same exception type
with the same message.

Circuits have 4 qubits.  Their gates come from a small pool and repeat,
so the same objects recur, and equal copies with ``0.0`` and ``-0.0``
angles sit beside them.  Some gates are followed by their inverse, and
some stretches by their inverses in reverse order, so cancellations
cascade across rounds.  About one pool gate in six is conditioned, and
conditioned copies of pool gates sit between their unconditioned twins.
Angles include ``0.0``, ``-0.0``, 2π, 4π and 1e-12.  The pool holds
every single-qubit gate, ``cp``, ``crz`` and ``rxx`` in both operand
orders, ``toffoli``, ``fredkin``, barriers with and without operands,
``measure`` and ``prep_z`` (reset); copies of pool gates with their
operands reversed or moved to other wires join them.  Fusion runs with
``emit`` set to ``"u"``, ``"zyz"`` and an invalid mode, and the driver
with and without fusion at ``max_passes`` 0 to 3 and its default.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.core import gates as G
from repro.core.gates import GATE_SPECS, Gate
from repro.optimize import (
    cancel_inverse_pairs,
    fuse_single_qubit_runs,
    merge_rotations,
    optimize_circuit,
    remove_identities,
)

from . import optimize_reference as reference

_SETTINGS = dict(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_NUM_QUBITS = 4
_ANGLES = [
    0.0, -0.0, 2 * math.pi, 4 * math.pi, -4 * math.pi, 1e-12, -1e-12,
    0.25, -0.25, 0.7, math.pi / 2, math.pi,
]
# Every unitary gate; rotations again, so that merge chains form; and
# the operations without a matrix.
_NAMES = sorted(
    name for name, spec in GATE_SPECS.items() if spec.matrix is not None
) + ["rz", "rz", "rx", "cp", "crz", "rxx", "measure", "prep_z", "barrier"]
_EMITS = ["u", "zyz", "xyz"]


@st.composite
def _pool_gate(draw) -> Gate:
    name = draw(st.sampled_from(_NAMES))
    if name == "barrier":
        width = draw(st.integers(0, _NUM_QUBITS))
    else:
        width = GATE_SPECS[name].num_qubits
    qubits = tuple(draw(st.permutations(range(_NUM_QUBITS)))[:width])
    params = tuple(
        draw(st.sampled_from(_ANGLES))
        for _ in range(GATE_SPECS[name].num_params)
    )
    condition = None
    if GATE_SPECS[name].matrix is not None and draw(st.integers(0, 5)) == 0:
        bit = draw(st.integers(0, _NUM_QUBITS - 1))
        condition = (bit, draw(st.integers(0, 1)))
    return Gate(name, qubits, params, condition)


def _inverse(gate: Gate, reverse: bool) -> Gate | None:
    """An inverse of ``gate``, operands reversed when it is symmetric and
    ``reverse`` holds, or ``None`` for a gate without one."""
    try:
        inverse = gate.inverse()
    except ValueError:
        return None
    if reverse and gate.spec.symmetric:
        inverse = inverse.reversed_qubits()
    return inverse


def _negated_zeros(gate: Gate) -> Gate:
    """An equal copy of ``gate`` with its zero angles' signs flipped."""
    params = tuple(-p if p == 0.0 else p for p in gate.params)
    return Gate(gate.name, gate.qubits, params, gate.condition)


def _reversed(gate: Gate) -> Gate:
    """``gate`` with its operands in reverse order."""
    return Gate(gate.name, gate.qubits[::-1], gate.params, gate.condition)


def _moved(gate: Gate, shift: int) -> Gate:
    """``gate`` with its operands and condition bit moved by ``shift`` wires."""
    return gate.remap({q: (q + shift) % _NUM_QUBITS for q in range(_NUM_QUBITS)})


def _conditioned(gate: Gate, bit: int) -> Gate:
    """``gate`` conditioned on ``bit`` being 1, if it is unitary."""
    if not gate.is_unitary:
        return gate
    return Gate(gate.name, gate.qubits, gate.params, (bit, 1))


@st.composite
def circuits(draw) -> Circuit:
    pool = draw(st.lists(_pool_gate(), min_size=1, max_size=8))
    picks = st.sampled_from(pool)
    gates: list[Gate] = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 10))
        if kind <= 3:
            gates.append(draw(picks))
        elif kind == 4:
            gates.append(_negated_zeros(draw(picks)))
        elif kind == 5:
            gate = draw(picks)
            shift = draw(st.integers(0, _NUM_QUBITS - 1))
            gates.append(_moved(gate, shift) if shift else _reversed(gate))
        elif kind == 6:
            bit = draw(st.integers(0, _NUM_QUBITS - 1))
            gates.append(_conditioned(draw(picks), bit))
        elif kind <= 8:
            # A gate and its inverse.
            gate = draw(picks)
            gates.append(gate)
            inverse = _inverse(gate, draw(st.booleans()))
            if inverse is not None:
                gates.append(inverse)
        else:
            # A stretch and its inverses in reverse order: the pairs
            # cancel from the middle out, one round at a time.
            stretch = draw(st.lists(picks, min_size=1, max_size=4))
            gates.extend(stretch)
            for gate in reversed(stretch):
                inverse = _inverse(gate, draw(st.booleans()))
                if inverse is not None:
                    gates.append(inverse)
    return Circuit(_NUM_QUBITS, gates, name=draw(st.sampled_from(["", "c"])))


def _outcome(fn, *args, **kwargs):
    """The gate reprs, width and name ``fn`` returns, or what it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        return ("raised", type(exc), str(exc))
    return [repr(gate) for gate in result.gates], result.num_qubits, result.name


def _same(fn, ref_fn, circuit, **kwargs) -> None:
    assert _outcome(fn, circuit, **kwargs) == _outcome(ref_fn, circuit, **kwargs)


def _circuit(*gates: Gate) -> Circuit:
    return Circuit(_NUM_QUBITS, gates)


# A cancelled pair blocks its wires for the rest of the sweep: H X X H
# leaves H H after one sweep.
_NESTED = _circuit(G.h(0), G.x(0), G.x(0), G.h(0))
# A conditioned rotation ends a merge chain.
_CONDITIONED_BETWEEN = _circuit(
    G.rz(0.25, 0), Gate("rz", (0,), (0.5,), (1, 1)), G.rz(0.7, 0)
)
# The same run product on two qubits.
_TWO_WIRES = _circuit(G.h(0), G.cnot(0, 1), G.h(1))
# Fusion's last round re-fuses u gates, which moves angles' last bits.
_REFUSE = _circuit(
    G.h(0), G.t(0), G.cnot(0, 1), G.h(0), G.cnot(0, 1), G.s(1), G.h(1),
    G.rx(0.7, 1), G.cnot(1, 0), G.rz(0.25, 0), G.ry(0.7, 0),
)


@settings(**_SETTINGS)
@given(circuits())
@example(_NESTED)
@example(_CONDITIONED_BETWEEN)
def test_cancel_merge_and_identities(circuit):
    _same(cancel_inverse_pairs, reference.cancel_inverse_pairs, circuit)
    _same(merge_rotations, reference.merge_rotations, circuit)
    _same(remove_identities, reference.remove_identities, circuit)


@settings(**_SETTINGS)
@given(circuits(), st.sampled_from(_EMITS))
@example(_TWO_WIRES, "u")
@example(_TWO_WIRES, "zyz")
def test_fuse_single_qubit_runs(circuit, emit):
    _same(fuse_single_qubit_runs, reference.fuse_single_qubit_runs, circuit,
          emit=emit)


@settings(**_SETTINGS)
@given(
    circuits(), st.booleans(), st.sampled_from(_EMITS),
    st.sampled_from([0, 1, 2, 3, None]),
)
@example(_NESTED, False, "u", 1)
@example(_CONDITIONED_BETWEEN, False, "u", None)
@example(_TWO_WIRES, True, "u", None)
@example(_REFUSE, True, "u", None)
@example(_REFUSE, True, "zyz", None)
@example(_TWO_WIRES, True, "xyz", 0)
def test_optimize_circuit(circuit, fuse, emit, max_passes):
    kwargs = dict(fuse=fuse, emit=emit)
    if max_passes is not None:
        kwargs["max_passes"] = max_passes
    _same(optimize_circuit, reference.optimize_circuit, circuit, **kwargs)
