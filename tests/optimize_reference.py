"""The peephole passes as they were before their last-gate sweeps.

A verbatim copy of the earlier ``cancel_inverse_pairs``,
``merge_rotations``, ``fuse_single_qubit_runs``, ``remove_identities``
and ``optimize_circuit`` (with ``_wire_successors`` and
``_next_on_same_wires``): per-wire successor links rebuilt for every
sweep, a ``Circuit`` built after every pass, every run synthesised anew
and identity removal in every round.  :mod:`tests.test_optimize_reference`
compares the current passes against it.  Only the imports differ.
"""

from __future__ import annotations

import math

from repro.core import gates as G
from repro.core.circuit import Circuit
from repro.core.gates import Gate, product_2x2
from repro.decompose.euler import is_unitary, u_angles

__all__ = [
    "cancel_inverse_pairs",
    "merge_rotations",
    "fuse_single_qubit_runs",
    "remove_identities",
    "optimize_circuit",
]

_ANGLE_EPS = 1e-9
_ROTATIONS = {"rx", "ry", "rz", "cp", "crz"}
# Gates cancel_inverse_pairs tries to pair: unitary, not a barrier, and
# inverted by a name swap or by negating every parameter.
_CANCELLABLE = {
    name
    for name, spec in G.GATE_SPECS.items()
    if spec.matrix is not None
    and (not spec.num_params or spec.hermitian_params)
}
# The name every inverse of a cancellable gate carries.
_INVERSE_NAME = {
    name: G.GATE_SPECS[name].inverse_name or name for name in _CANCELLABLE
}
_IDENTITY = G.GATE_SPECS["i"].entries(())
# ``np.allclose(m, m[0, 0] * I, atol=1e-9)``: |a - b| <= atol + rtol * |b|.
_PHASE_ATOL = 1e-9
_RTOL = 1e-5


def _is_identity_angle(angle: float) -> bool:
    """True when a rotation by ``angle`` is the identity (mod 4*pi).

    SU(2) rotations have period 4*pi; a 2*pi rotation is -identity,
    which is only a global phase for uncontrolled rotations — but for
    *controlled* rotations the relative phase matters, so callers must
    use the full 4*pi period.  We conservatively use 4*pi everywhere.
    """
    return abs(math.remainder(angle, 4.0 * math.pi)) < _ANGLE_EPS


def _rebuilt(circuit: Circuit, gates: list[Gate]) -> Circuit:
    """A circuit like ``circuit`` holding ``gates`` (already on its qubits)."""
    out = Circuit(circuit.num_qubits, name=circuit.name)
    out.gates.extend(gates)
    return out


def _wire_successors(circuit: Circuit) -> tuple[list, list]:
    """Per-wire successor links of every gate.

    Returns ``(wires, successors)``: ``wires[i]`` is the qubits gate
    ``i`` touches (a barrier without qubits touches every wire) and
    ``successors[i][k]`` is the index of the next gate on wire
    ``wires[i][k]``, or ``None`` when gate ``i`` is the last there.
    """
    every = tuple(range(circuit.num_qubits))
    # The successor list and slot of the last gate seen on each wire; a
    # wire no gate has touched yet points into a discarded list.
    last_after: list[list] = [[None]] * circuit.num_qubits
    last_slot = [0] * circuit.num_qubits
    wires: list[tuple[int, ...]] = []
    successors: list[list[int | None]] = []
    for index, gate in enumerate(circuit.gates):
        qubits = gate.qubits or every
        after = [None] * len(qubits)
        wires.append(qubits)
        successors.append(after)
        for k, q in enumerate(qubits):
            last_after[q][last_slot[q]] = index
            last_after[q] = after
            last_slot[q] = k
    return wires, successors


def _next_on_same_wires(wires: list, successors: list, index: int) -> int | None:
    """The gate after ``index`` on its wires, if it touches exactly them.

    That is the first later gate touching any wire of gate ``index``,
    provided it touches all of them and no other; a gate overlapping
    them partially blocks the line, and ``None`` comes back, as it does
    when no later gate touches them.

    The sweeps below ask this of each gate once, in circuit order, and
    remove only gates it returned: such a gate's predecessor on each of
    its wires is the gate it was returned for, which was asked about
    already.  So no gate asked about later has a removed gate as its
    direct successor, and the answer is the first later gate not yet
    removed, the one a forward rescan finds.
    """
    after = successors[index]
    first = after[0]
    if first is None or len(wires[first]) != len(after):
        return None
    for other in after:
        if other != first:
            return None
    return first


def cancel_inverse_pairs(circuit: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs.

    Two gates cancel when the second is the inverse of the first, they
    act on the same qubits in the same order (or any order for symmetric
    gates), and no intervening gate touches any of those qubits.  A
    classically conditioned gate never cancels: :meth:`Gate.inverse`
    refuses it, and it differs from every unconditioned gate.  One
    sweep in O(n) for n gates of bounded arity, over per-wire successor
    links and removal flags; run under :func:`optimize_circuit` for
    cascading cancels.
    """
    gates = circuit.gates
    wires, successors = _wire_successors(circuit)
    removed = [False] * len(gates)
    for index, gate in enumerate(gates):
        if removed[index] or gate.name not in _CANCELLABLE:
            continue
        partner = _next_on_same_wires(wires, successors, index)
        if partner is None:
            continue
        other = gates[partner]
        if other.name != _INVERSE_NAME[gate.name]:
            continue  # not the inverse, nor a measure, prep or barrier
        if not _are_inverses(gate, other):
            continue
        removed[index] = removed[partner] = True
    return _rebuilt(
        circuit, [gate for gate, gone in zip(gates, removed) if not gone]
    )


def _are_inverses(a: Gate, b: Gate) -> bool:
    if set(a.qubits) != set(b.qubits):
        return False
    try:
        inverse = a.inverse()
    except ValueError:
        return False
    if inverse == b:
        return True
    if a.spec.symmetric and inverse == b.reversed_qubits():
        return True
    return False


def merge_rotations(circuit: Circuit) -> Circuit:
    """Fuse adjacent same-axis rotations on the same qubits.

    ``rx(a) rx(b) -> rx(a + b)`` (likewise ry/rz/cp/crz); sums that are
    full turns are dropped entirely.  Angles are summed left to right.
    A classically conditioned rotation never merges, neither as the
    first rotation nor as a later one; it passes through unchanged.
    One sweep in O(n) for n gates of bounded arity: per-wire successor
    links lead from each rotation to the next, and merged gates are
    flagged as removed rather than deleted from a list.
    """
    gates = circuit.gates
    wires, successors = _wire_successors(circuit)
    removed = [False] * len(gates)
    out: list[Gate] = []
    for index, gate in enumerate(gates):
        if removed[index]:
            continue
        if gate.name not in _ROTATIONS or gate.condition is not None:
            out.append(gate)
            continue
        angle = gate.params[0]
        merged = False
        cursor = index
        while True:
            nxt = _next_on_same_wires(wires, successors, cursor)
            if nxt is None:
                break
            other = gates[nxt]
            same_operands = other.qubits == gate.qubits or (
                other.spec.symmetric
                and set(other.qubits) == set(gate.qubits)
            )
            if (
                other.name == gate.name
                and same_operands
                and other.condition is None
            ):
                angle += other.params[0]
                removed[nxt] = merged = True
                cursor = nxt
                continue
            break
        if not _is_identity_angle(angle):
            out.append(Gate(gate.name, gate.qubits, (angle,)) if merged else gate)
    return _rebuilt(circuit, out)


def fuse_single_qubit_runs(circuit: Circuit, *, emit: str = "u") -> Circuit:
    """Collapse maximal single-qubit gate runs into one gate per wire.

    Args:
        circuit: Input circuit.
        emit: ``"u"`` emits one ``u(θ,φ,λ)`` per non-trivial run (the IBM
            native form); ``"zyz"`` emits ``rz·ry·rz`` with zero-angle
            factors dropped.

    Runs whose product is the identity (up to global phase) vanish
    entirely.  Barriers, measurements, preparations and multi-qubit
    gates end a run.  A classically conditioned gate never joins a run:
    it ends the runs on its qubits and on its condition bit's wire (as
    :mod:`repro.core.dag` and the scheduler order that bit) and passes
    through unchanged.  Each run is multiplied out in scalar complex
    arithmetic, one 2x2 product per gate, so the emitted angles do not
    depend on the BLAS kernel.

    Raises:
        ValueError: when a run's product is not unitary.
    """
    if emit not in ("u", "zyz"):
        raise ValueError(f"unknown emit mode {emit!r}")
    out: list[Gate] = []
    pending: dict[int, tuple[complex, ...]] = {}

    def flush(qubit: int) -> None:
        entries = pending.pop(qubit, None)
        if entries is None:
            return
        matrix = (entries[:2], entries[2:])
        if _is_phase_identity(entries) and is_unitary(matrix):
            return
        theta, phi, lam = u_angles(matrix)
        if emit == "u":
            out.append(G.u(theta, phi, lam, qubit))
        else:
            if abs(lam) > _ANGLE_EPS:
                out.append(G.rz(lam, qubit))
            if abs(theta) > _ANGLE_EPS:
                out.append(G.ry(theta, qubit))
            if abs(phi) > _ANGLE_EPS:
                out.append(G.rz(phi, qubit))

    every = tuple(range(circuit.num_qubits))
    for gate in circuit.gates:
        entries = gate.spec.entries
        if entries is not None and gate.condition is None:
            q = gate.qubits[0]
            pending[q] = product_2x2(
                entries(gate.params), pending.get(q, _IDENTITY)
            )
            continue
        touched = gate.qubits or every
        if gate.condition is not None and gate.condition[0] not in touched:
            touched = touched + (gate.condition[0],)
        for q in touched:
            flush(q)
        out.append(gate)
    for q in sorted(pending):
        flush(q)
    return _rebuilt(circuit, out)


def _is_phase_identity(entries: tuple[complex, ...]) -> bool:
    """``entries`` is ``e^{i phi} I``: np.allclose(m, m[0, 0] * I, atol=1e-9)."""
    a, b, c, d = entries
    if abs(abs(a) - 1.0) > _PHASE_ATOL:
        return False
    return (
        abs(b) <= _PHASE_ATOL
        and abs(c) <= _PHASE_ATOL
        and abs(d - a) <= _PHASE_ATOL + _RTOL * abs(a)
    )


def remove_identities(circuit: Circuit) -> Circuit:
    """Drop explicit identity gates and zero-angle rotations."""
    return _rebuilt(circuit, [
        gate for gate in circuit.gates
        if gate.name != "i"
        and not (gate.name in _ROTATIONS and _is_identity_angle(gate.params[0]))
    ])


def optimize_circuit(
    circuit: Circuit,
    *,
    fuse: bool = False,
    emit: str = "u",
    max_passes: int = 20,
) -> Circuit:
    """Iterate the peephole passes to a fixed point.

    Args:
        circuit: Input circuit (any gate set).
        fuse: Additionally fuse single-qubit runs into ``u`` gates (off
            by default: fusion changes the gate vocabulary, which is not
            always wanted before decomposition).
        emit: Fusion output form, see :func:`fuse_single_qubit_runs`.
        max_passes: Safety bound on fixed-point iteration.

    Returns:
        An equivalent circuit (up to global phase) with fewer or equal
        gates.
    """
    current = remove_identities(circuit)
    for _ in range(max_passes):
        before = len(current.gates)
        current = cancel_inverse_pairs(current)
        current = merge_rotations(current)
        current = remove_identities(current)
        if fuse:
            current = fuse_single_qubit_runs(current, emit=emit)
        if len(current.gates) >= before:
            break
    return current
