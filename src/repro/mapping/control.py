"""Control-constraint-aware scheduling (paper Section V).

Superconducting chips share classical control electronics among qubits,
which "may severely affect the scheduling of quantum operations as it
will limit the possible parallelism leading to larger circuit depths".
This module implements a greedy list scheduler enforcing the three
Surface-17 constraint families described in the paper:

1. **Shared waveform generators.**  Qubits of one frequency group share a
   microwave source: the *same* single-qubit gate may start on several of
   them in the same cycle, but *different* single-qubit gates may not,
   and a new gate cannot start in a group while a different one is still
   playing.
2. **Shared feedlines.**  Measurements of qubits on one feedline may
   start together, but a measurement "cannot start ... while still
   measuring" another qubit on the same line.
3. **CZ parking.**  While a CZ runs, spectator neighbours of the detuned
   qubit that sit at the operating frequency are parked and "cannot be
   involved in any single or two-qubit gate".

Disable any subset via the keyword flags to measure each family's impact
(the ablation benchmark of DESIGN.md).

Cost model.  One pass builds what the start test reads: per gate object
its duration (one device lookup per name), touched lines, parked
operands and spectators, AWG group, signature and feedline; per gate its
predecessor count and successors.  At a cycle the ready gates are tried
in priority order until a sweep starts none; then time jumps to the
earliest end among the gates in flight.  Every start test compares the
cycle with such an end (a predecessor's, a busy or parked line's, or a
running gate's on the same AWG, feedline or entangler), so no verdict
changes before it: each gate starts at the cycle, and in the order, a
cycle-by-cycle sweep gives.  The work grows with gate ends, not cycles.
"""

from __future__ import annotations

from typing import NamedTuple

from ..core.circuit import Circuit
from ..core.gates import Gate
from ..devices.device import ControlConstraints, Device
from .scheduler import Schedule, ScheduledGate, _durations, touched_qubits

__all__ = ["schedule_with_constraints"]


class _Kind(NamedTuple):
    """What a gate in flight can hold against another: the AWG group and
    signature of a single-qubit unitary, the feedline of a measurement or
    preparation, its name, and whether it is a two-qubit unitary."""

    group: int | None
    signature: tuple | None
    feedline: int | None
    name: str
    two_qubit: bool


def schedule_with_constraints(
    circuit: Circuit,
    device: Device,
    *,
    awg: bool = True,
    feedlines: bool = True,
    parking: bool = True,
    serial_two_qubit: bool | None = None,
    priority: str = "order",
) -> Schedule:
    """Greedy earliest-start schedule honouring control constraints.

    Args:
        circuit: A circuit already mapped and decomposed for ``device``
            (physical qubits, native gates).
        device: Target device; when it carries no
            :class:`~repro.devices.device.ControlConstraints` the result
            equals :func:`~repro.mapping.scheduler.asap_schedule`.
        awg: Enforce the shared-waveform-generator rule.
        feedlines: Enforce the shared-feedline measurement rule.
        parking: Enforce CZ parking.
        serial_two_qubit: Allow at most one two-qubit gate in flight at a
            time, as on trapped-ion modules whose entangler shares the
            collective vibrational bus (Sec. VI-C).  Default: on when the
            device carries the ``"serial_two_qubit"`` feature.
        priority: Tie-breaking among ready gates: ``"order"`` follows the
            program order (deterministic, matches the paper's hand
            schedules), ``"critical"`` prefers gates with the longest
            duration-weighted path to the circuit's end (list scheduling
            by criticality, often lower latency under tight constraints).

    Returns:
        A valid :class:`~repro.mapping.scheduler.Schedule`.
    """
    if priority not in ("order", "critical"):
        raise ValueError(f"unknown priority {priority!r}")
    constraints = device.constraints or ControlConstraints()
    if serial_two_qubit is None:
        serial_two_qubit = "serial_two_qubit" in device.features
    gates = circuit.gates
    n_gates = len(gates)
    num_qubits = circuit.num_qubits
    frequency_group = constraints.frequency_group
    feedline_of = constraints.feedline
    durations = _durations(gates, device)

    def profile(gate: Gate) -> tuple:
        """What the start test reads about ``gate``: its duration, the
        lines it touches, the operands that must not be parked, the
        spectators it parks, and its :class:`_Kind`."""
        name, qubits = gate.name, gate.qubits
        touched = qubits
        if gate.condition is not None or not qubits:
            touched = touched_qubits(gate, num_qubits)
        unitary = gate.is_unitary
        unparked = spectators = ()
        if parking and (unitary or name == "measure"):
            unparked = qubits
            if name == "cz":
                spectators = tuple(
                    constraints.parked_qubits(*qubits, device.neighbours)
                )
        group = signature = feedline = None
        if unitary and len(qubits) == 1:
            group = frequency_group.get(qubits[0])
            signature = (name, gate.params)
        elif name == "measure" or name == "prep_z":
            feedline = feedline_of.get(qubits[0])
        kind = _Kind(group, signature, feedline, name, unitary and len(qubits) == 2)
        return durations[name], touched, unparked, spectators, kind

    # One profile per gate object (lowering repeats a gate as the same
    # object), and the dependency counts and successors per gate.
    profile_of: dict[int, tuple] = {}
    profiles: list[tuple] = []
    preds_left = [0] * n_gates
    successors: list[list[int]] = [[] for _ in range(n_gates)]
    last_on = [-1] * num_qubits
    for index, gate in enumerate(gates):
        info = profile_of.get(id(gate))
        if info is None:
            info = profile_of[id(gate)] = profile(gate)
        profiles.append(info)
        touched = info[1]
        preds = {last_on[q] for q in touched}
        preds.discard(-1)
        preds_left[index] = len(preds)
        for p in preds:
            successors[p].append(index)
        for q in touched:
            last_on[q] = index

    # Criticality: duration-weighted longest path from each gate to the
    # end of the circuit.  Dependencies point from lower to higher
    # indices, so a reverse sweep visits successors first.
    criticality = [0] * n_gates
    if priority == "critical":
        for index in range(n_gates - 1, -1, -1):
            criticality[index] = profiles[index][0] + max(
                (criticality[s] for s in successors[index]), default=0
            )

    ready = {index for index in range(n_gates) if not preds_left[index]}
    deps_done_at = [0] * n_gates
    qubit_free = [0] * num_qubits
    parked_until = [0] * num_qubits
    items: list[ScheduledGate] = []
    # (start, end, kind) of each gate that may still be in flight.
    running: list[tuple[int, int, _Kind]] = []

    def blocked(index: int, start: int) -> bool:
        if deps_done_at[index] > start:
            return True
        _, lines, unparked, spectators, kind = profiles[index]
        for q in lines:
            if qubit_free[q] > start:
                return True
        for q in unparked:
            if parked_until[q] > start:
                return True
        # Parked spectators must be idle for the whole CZ window; since
        # we only look at current occupancy, require them free by start.
        for q in spectators:
            if qubit_free[q] > start:
                return True
        group, signature, feedline, name, two_qubit = kind
        if awg and group is not None:
            # Different 1q gates cannot share a frequency group
            # concurrently; an identical gate may co-start.
            for run_start, run_end, other in running:
                if other.group == group and run_end > start and not (
                    run_start == start and other.signature == signature
                ):
                    return True
        if feedlines and feedline is not None:
            # Same-kind feedline operations may start together (one
            # shared tone); a different or earlier one blocks the line.
            for run_start, run_end, other in running:
                if other.feedline == feedline and run_end > start and not (
                    run_start == start and other.name == name
                ):
                    return True
        if serial_two_qubit and two_qubit:
            for _, run_end, other in running:
                if other.two_qubit and run_end > start:
                    return True
        return False

    def start_gate(index: int, start: int) -> None:
        duration, lines, _, spectators, kind = profiles[index]
        end = start + duration
        items.append(ScheduledGate(gates[index], start, duration))
        running.append((start, end, kind))
        for q in lines:
            qubit_free[q] = end
        for q in spectators:
            parked_until[q] = max(parked_until[q], end)
        ready.discard(index)
        for succ in successors[index]:
            if deps_done_at[succ] < end:
                deps_done_at[succ] = end
            preds_left[succ] -= 1
            if not preds_left[succ]:
                ready.add(succ)

    # Default: the original program order, deterministic and close to
    # the paper's hand schedules; "critical" prefers long dependency tails.
    order = (lambda i: (-criticality[i], i)) if priority == "critical" else None
    cycle = 0
    while len(items) < n_gates:
        running = [run for run in running if run[1] > cycle]
        started = True
        while started:
            started = False
            for index in sorted(ready, key=order):
                if not blocked(index, cycle):
                    start_gate(index, cycle)
                    started = True
        if len(items) == n_gates:
            break
        # Every start test compares against the end of a gate in flight,
        # so no gate can start before the earliest such end.
        ends = [run[1] for run in running if run[1] > cycle]
        if not ends:
            raise RuntimeError(
                "constraint scheduler exceeded its cycle budget; "
                "constraints are unsatisfiable or inconsistent"
            )
        cycle = min(ends)

    return Schedule(
        items,
        circuit.num_qubits,
        device.cycle_time_ns,
        metadata={"awg": awg, "feedlines": feedlines, "parking": parking},
    )
