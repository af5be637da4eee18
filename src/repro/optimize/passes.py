"""Peephole optimisation passes.

Mapping inflates gate counts (SWAP insertion, direction flips, native
decomposition), and much of that inflation is locally redundant:
direction-flip Hadamards meet decomposition Hadamards, SWAP chains leave
adjacent CNOT pairs, Z-rotations pile up on one wire.  The paper's
Section III-B lists dedicated pre-/post-processing among the "solution
features" of good mappers ([26]); these passes are the standard
peephole repertoire:

* :func:`cancel_inverse_pairs` — drop adjacent gate pairs that multiply
  to the identity (H·H, CNOT·CNOT on the same wires, T·Tdg, ...),
  looking *through* unrelated gates on other qubits;
* :func:`merge_rotations` — fuse runs of same-axis rotations
  (Rz·Rz → Rz(sum), with full-turn elimination);
* :func:`fuse_single_qubit_runs` — collapse every maximal run of
  single-qubit gates on one wire into a single ``u(θ,φ,λ)`` (or drop it
  when the run multiplies to the identity up to phase);
* :func:`remove_identities` — drop explicit ``i`` gates and zero-angle
  rotations.

All passes preserve the circuit unitary up to global phase, and a
classically conditioned gate never joins a cancellation, merge or
fusion.  None uses numpy.

Cost model, for n gates of bounded arity: cancellation and merging are
each one forward sweep over an array holding the last gate on each
wire, O(n).  Fusion does one scalar 2x2 product per gate; per call it
computes the entries of each distinct gate object and synthesises each
distinct (qubit, run product) once, in tables that die with the call.
The driver :func:`optimize_circuit` iterates the passes to a fixed
point on plain gate lists, threads one pair of fusion tables through
its rounds, and builds one :class:`Circuit` at the end.
"""

from __future__ import annotations

import math
import struct

from ..core.circuit import Circuit
from ..core import gates as G
from ..core.gates import Gate, product_2x2
from ..decompose.euler import is_unitary, u_angles
from ..obs import add_counter

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
# The bit patterns of a run product's eight floats: a key that keeps
# 0.0 and -0.0 apart, which complex equality does not.
_PACK = struct.Struct("8d").pack


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


def cancel_inverse_pairs(circuit: Circuit) -> Circuit:
    """Remove adjacent mutually-inverse gate pairs.

    Two gates cancel when the second is the inverse of the first, they
    act on the same qubits in the same order (or any order for symmetric
    gates), and no intervening gate touches any of those qubits.  A
    classically conditioned gate never cancels: :meth:`Gate.inverse`
    refuses it, and it differs from every unconditioned gate.  One
    forward sweep; a cancelled pair still blocks its wires for the rest
    of it, so run under :func:`optimize_circuit` for cascading cancels.
    """
    return _rebuilt(circuit, _cancel(circuit.gates, circuit.num_qubits))


def _cancel(gates: list[Gate], num_qubits: int) -> list[Gate]:
    # ``last[q]`` is the position of the latest gate on wire q (a barrier
    # without qubits sits on every wire).  When p is ``last`` on every
    # wire of g, g follows p directly on each of its wires, all of which
    # p touches; the inverse test compares operand sets, so the two act
    # on the same wires.  A removed gate stays ``last``: a cancelled pair
    # blocks its wires for the rest of the sweep.
    every = range(num_qubits)
    last = [-1] * num_qubits
    removed = [False] * len(gates)
    for index, gate in enumerate(gates):
        qubits = gate.qubits or every
        if gate.name in _CANCELLABLE:
            p = last[qubits[0]]
            if p >= 0 and not removed[p]:
                other = gates[p]
                if (
                    _INVERSE_NAME.get(other.name) == gate.name
                    and all(last[q] == p for q in qubits)
                    and _are_inverses(other, gate)
                ):
                    removed[p] = removed[index] = True
        for q in qubits:
            last[q] = index
    return [gate for gate, gone in zip(gates, removed) if not gone]


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
    One forward sweep: a rotation joins the chain of the latest gate on
    all its wires when that chain's first rotation has its name and
    operands.
    """
    return _rebuilt(circuit, _merge(circuit.gates, circuit.num_qubits))


def _merge(gates: list[Gate], num_qubits: int) -> list[Gate]:
    every = range(num_qubits)
    last = [-1] * num_qubits
    # chain[i]: the slot in ``out`` of the head of gate i's chain, or -1.
    chain = [-1] * len(gates)
    out: list[Gate | None] = []
    sums: dict[int, float] = {}
    merged: set[int] = set()
    for index, gate in enumerate(gates):
        qubits = gate.qubits or every
        if gate.name in _ROTATIONS and gate.condition is None:
            p = last[qubits[0]]
            slot = chain[p] if p >= 0 else -1
            head = out[slot] if slot >= 0 else None
            if (
                head is not None
                and head.name == gate.name
                and all(last[q] == p for q in qubits)
                and (
                    head.qubits == gate.qubits
                    or (gate.spec.symmetric
                        and set(head.qubits) == set(gate.qubits))
                )
            ):
                sums[slot] += gate.params[0]
                merged.add(slot)
            else:
                slot = len(out)
                sums[slot] = gate.params[0]
                out.append(gate)
            chain[index] = slot
        else:
            out.append(gate)
        for q in qubits:
            last[q] = index
    for slot, angle in sums.items():
        if _is_identity_angle(angle):
            out[slot] = None
        elif slot in merged:
            out[slot] = Gate(out[slot].name, out[slot].qubits, (angle,))
    return [gate for gate in out if gate is not None]


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
    return _rebuilt(circuit, _Fusion(emit)(circuit.gates, circuit.num_qubits))


class _Fusion:
    """Single-qubit fusion with tables that live as long as the object.

    ``entries`` maps the ``id`` of each gate object to the gate (which
    keeps the id from being reused) and its 2x2 entries, or ``None``
    when it ends runs.  ``runs`` maps a qubit and the bit patterns of a
    run product to the gates the run becomes.  ``fused`` counts the runs
    multiplied out, ``synthesised`` those that reached :func:`u_angles`.
    """

    def __init__(self, emit: str) -> None:
        self.emit = emit
        self.entries: dict[int, tuple] = {}
        self.runs: dict[tuple[int, bytes], tuple[Gate, ...]] = {}
        self.fused = self.synthesised = 0

    def __call__(self, gates: list[Gate], num_qubits: int) -> list[Gate]:
        if self.emit not in ("u", "zyz"):
            raise ValueError(f"unknown emit mode {self.emit!r}")
        known = self.entries
        run_gates = self._run_gates
        out: list[Gate] = []
        pending: dict[int, tuple[complex, ...]] = {}
        every = tuple(range(num_qubits))
        for gate in gates:
            hit = known.get(id(gate))
            if hit is None:
                make = gate.spec.entries
                fusable = make is not None and gate.condition is None
                hit = known[id(gate)] = (
                    gate, make(gate.params) if fusable else None
                )
            entries = hit[1]
            if entries is not None:
                q = gate.qubits[0]
                pending[q] = product_2x2(entries, pending.get(q, _IDENTITY))
                continue
            touched = gate.qubits or every
            if gate.condition is not None and gate.condition[0] not in touched:
                touched = touched + (gate.condition[0],)
            for q in touched:
                product = pending.pop(q, None)
                if product is not None:
                    out.extend(run_gates(q, product))
            out.append(gate)
        for q in sorted(pending):
            out.extend(run_gates(q, pending[q]))
        return out

    def _run_gates(self, qubit: int, entries: tuple) -> tuple[Gate, ...]:
        """The gates a run with product ``entries`` on ``qubit`` becomes."""
        self.fused += 1
        a, b, c, d = entries
        key = (qubit, _PACK(a.real, a.imag, b.real, b.imag,
                            c.real, c.imag, d.real, d.imag))
        gates = self.runs.get(key)
        if gates is not None:
            return gates
        matrix = (entries[:2], entries[2:])
        if _is_phase_identity(entries) and is_unitary(matrix):
            gates = ()
        else:
            self.synthesised += 1
            theta, phi, lam = u_angles(matrix)
            if self.emit == "u":
                gates = (G.u(theta, phi, lam, qubit),)
            else:
                gates = tuple(
                    rot(angle, qubit)
                    for rot, angle in ((G.rz, lam), (G.ry, theta), (G.rz, phi))
                    if abs(angle) > _ANGLE_EPS
                )
        self.runs[key] = gates
        return gates


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
    return _rebuilt(circuit, _without_identities(circuit.gates))


def _without_identities(gates: list[Gate]) -> list[Gate]:
    return [
        gate for gate in gates
        if gate.name != "i"
        and not (gate.name in _ROTATIONS and _is_identity_angle(gate.params[0]))
    ]


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
        gates.  When traced, reports the counters ``optimize.rounds``,
        ``optimize.runs_fused`` and ``optimize.runs_synthesised``.
    """
    # Identities go once: merging drops every unconditioned rotation by
    # an identity angle, and no pass makes an ``i`` gate or a
    # conditioned rotation.
    num_qubits = circuit.num_qubits
    gates = _without_identities(circuit.gates)
    fusion = _Fusion(emit)
    rounds = 0
    for _ in range(max_passes):
        rounds += 1
        before = len(gates)
        gates = _merge(_cancel(gates, num_qubits), num_qubits)
        if fuse:
            gates = fusion(gates, num_qubits)
        if len(gates) >= before:
            break
    add_counter("optimize.rounds", rounds)
    add_counter("optimize.runs_fused", fusion.fused)
    add_counter("optimize.runs_synthesised", fusion.synthesised)
    return _rebuilt(circuit, gates)
