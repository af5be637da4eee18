"""The post-routing back end as it was before its per-gate memo tables.

A verbatim copy of the earlier ``decompose_circuit`` (with
``_memo_key``), ``fix_directions``, ``check_connectivity``,
``touched_qubits``, ``asap_schedule``, ``alap_schedule`` and
``schedule_with_constraints`` (with ``_Running`` and
``_uses_feedline``): every gate of every pass handled one by one, and a
constraint scheduler that steps one cycle at a time.
:mod:`tests.test_backend_reference` compares the current passes against
it.  Only the imports differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import gates as G
from repro.core.circuit import Circuit
from repro.core.dag import DependencyGraph
from repro.core.gates import Gate
from repro.decompose.decomposer import _MAX_PASSES, decompose_gate
from repro.devices.device import ControlConstraints, Device
from repro.mapping.routing.base import RoutingError
from repro.mapping.scheduler import Schedule, ScheduledGate

__all__ = [
    "alap_schedule",
    "asap_schedule",
    "check_connectivity",
    "decompose_circuit",
    "fix_directions",
    "schedule_with_constraints",
]


def decompose_circuit(circuit: Circuit, device: Device) -> Circuit:
    """Lower every gate of ``circuit`` into the native set of ``device``.

    The output circuit is equivalent to the input up to global phase and
    contains only native gates (plus measure/prep/barrier).

    Each distinct gate is rewritten once per call: :func:`decompose_gate`
    runs on it a single time, level by level (the gates of the input,
    then the gates their rewrites produce, and so on), and every
    occurrence of the gate takes its memoised native expansion.  The
    output is the one repeated whole-circuit rewriting would give,
    including which ``ValueError`` comes first.  Distinct means a
    different ``repr``, so ``0.0`` and ``-0.0`` angles stay apart.  The
    memo lives for this call only.

    Raises:
        ValueError: when rewriting fails to converge within
            ``_MAX_PASSES`` levels, meaning the device's native set is
            not universal for the input.
    """
    steps: dict[tuple, list[Gate]] = {}
    level = {_memo_key(gate): gate for gate in circuit.gates}
    for _ in range(_MAX_PASSES):
        changed = False
        produced: dict[tuple, Gate] = {}
        for key, gate in level.items():
            replacement = steps.get(key)
            if replacement is None:
                replacement = steps[key] = decompose_gate(gate, device)
            if len(replacement) != 1 or replacement[0] != gate:
                changed = True
                for g in replacement:
                    produced.setdefault(_memo_key(g), g)
        if not changed:
            break
        level = produced
    else:
        raise ValueError(
            f"decomposition did not converge on device {device.name!r}; "
            f"native set {sorted(device.native_gates)} may not be universal"
        )

    expansions: dict[tuple, list[Gate]] = {}

    def expand(key: tuple, gate: Gate) -> list[Gate]:
        native = expansions.get(key)
        if native is None:
            replacement = steps[key]
            if len(replacement) == 1 and replacement[0] == gate:
                native = replacement
            else:
                native = []
                for g in replacement:
                    native.extend(expand(_memo_key(g), g))
            expansions[key] = native
        return native

    out = Circuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit.gates:
        out.gates.extend(expand(_memo_key(gate), gate))
    return out


def _memo_key(gate: Gate) -> tuple:
    """Memo key of ``gate``.

    ``Gate`` equality holds between ``0.0`` and ``-0.0`` angles, which
    print (and lower) differently, so parameters key by their ``repr``.
    """
    params = gate.params
    return (gate.name, gate.qubits, repr(params) if params else (), gate.condition)


def fix_directions(circuit: Circuit, device: Device) -> tuple[Circuit, int]:
    """Reverse forbidden-orientation CNOTs with four Hadamards each.

    Args:
        circuit: A routed circuit on physical qubits (every two-qubit gate
            already on a connected pair).
        device: The target device.

    Returns:
        ``(fixed_circuit, flips)`` where ``flips`` counts reversed CNOTs.

    Raises:
        ValueError: when a two-qubit gate sits on an unconnected pair or a
            non-CNOT asymmetric gate needs reversal (no rule).
    """
    if device.symmetric:
        return circuit.copy(), 0

    out = Circuit(circuit.num_qubits, name=circuit.name)
    flips = 0
    for gate in circuit.gates:
        if not gate.is_two_qubit or gate.is_symmetric:
            out.append(gate)
            continue
        a, b = gate.qubits
        if device.has_edge(a, b):
            out.append(gate)
            continue
        if not device.has_edge(b, a):
            raise ValueError(f"gate {gate} is on an unconnected pair; route first")
        if gate.name != "cnot":
            raise ValueError(f"no direction-flip rule for {gate.name!r}")
        out.extend(
            [G.h(a), G.h(b), G.cnot(b, a), G.h(a), G.h(b)]
        )
        flips += 1
    return out, flips


def check_connectivity(circuit: Circuit, device: Device) -> None:
    """Raise :class:`RoutingError` if any 2-qubit gate is on unconnected qubits."""
    for index, gate in enumerate(circuit.gates):
        if len(gate.qubits) == 2 and gate.is_unitary:
            a, b = gate.qubits
            if not device.connected(a, b):
                raise RoutingError(
                    f"gate #{index} ({gate}) acts on unconnected qubits"
                )
        elif len(gate.qubits) > 2:
            raise RoutingError(
                f"gate #{index} ({gate}) has more than two qubits; "
                "decompose before routing"
            )


def touched_qubits(gate: Gate, num_qubits: int) -> tuple[int, ...]:
    """Qubit lines a gate occupies for scheduling purposes.

    Barriers without operands span every line; a classical condition is
    modelled as touching its bit's qubit line (the feedforward wire).
    """
    qubits = gate.qubits or tuple(range(num_qubits))
    if gate.condition is not None and gate.condition[0] not in qubits:
        qubits = qubits + (gate.condition[0],)
    return qubits


def asap_schedule(circuit: Circuit, device: Device) -> Schedule:
    """As-soon-as-possible schedule under dependencies and durations.

    Every gate starts at the first cycle where all its operand qubits are
    free; barriers synchronise their qubits without taking time.
    """
    free_at = [0] * circuit.num_qubits
    items: list[ScheduledGate] = []
    for gate in circuit.gates:
        qubits = touched_qubits(gate, circuit.num_qubits)
        start = max((free_at[q] for q in qubits), default=0)
        duration = 0 if gate.is_barrier else device.duration(gate)
        items.append(ScheduledGate(gate, start, duration))
        for q in qubits:
            free_at[q] = start + duration
    return Schedule(items, circuit.num_qubits, device.cycle_time_ns)


def alap_schedule(circuit: Circuit, device: Device) -> Schedule:
    """As-late-as-possible schedule (same latency as ASAP, gates pushed late).

    Computed by ASAP-scheduling the reversed gate list and mirroring the
    start times.
    """
    free_at = [0] * circuit.num_qubits
    reversed_items: list[tuple[Gate, int, int]] = []
    for gate in reversed(circuit.gates):
        qubits = touched_qubits(gate, circuit.num_qubits)
        start = max((free_at[q] for q in qubits), default=0)
        duration = 0 if gate.is_barrier else device.duration(gate)
        reversed_items.append((gate, start, duration))
        for q in qubits:
            free_at[q] = start + duration
    total = max((start + dur for _, start, dur in reversed_items), default=0)
    items = [
        ScheduledGate(gate, total - (start + dur), dur)
        for gate, start, dur in reversed(reversed_items)
    ]
    return Schedule(items, circuit.num_qubits, device.cycle_time_ns)


@dataclass
class _Running:
    """A gate currently in flight."""

    gate: Gate
    start: int
    end: int


def _uses_feedline(gate: Gate) -> bool:
    """Measurements and preparations occupy the readout feedline."""
    return gate.is_measurement or gate.name == "prep_z"


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
    dag = DependencyGraph(circuit)
    n_gates = len(circuit.gates)
    done: set[int] = set()
    finished_at: dict[int, int] = {}
    ready: set[int] = set(dag.front_layer())
    items: list[ScheduledGate] = []
    running: list[_Running] = []
    qubit_free = [0] * circuit.num_qubits
    parked_until = [0] * circuit.num_qubits
    cycle = 0

    def duration(gate: Gate) -> int:
        return 0 if gate.is_barrier else device.duration(gate)

    # Criticality: duration-weighted longest path from each gate to the
    # end of the circuit (computed on the reversed topological order).
    criticality = [0] * n_gates
    if priority == "critical":
        import networkx as nx

        for node in reversed(list(nx.topological_sort(dag.graph))):
            tail = max(
                (criticality[s] for s in dag.successors(node)), default=0
            )
            criticality[node] = duration(dag.gate(node)) + tail

    def ready_order() -> list[int]:
        if priority == "critical":
            return sorted(ready, key=lambda i: (-criticality[i], i))
        return sorted(ready)

    def deps_done_by(index: int) -> int:
        """First cycle at which all predecessors have finished."""
        return max(
            (finished_at[p] for p in dag.predecessors(index)),
            default=0,
        )

    def awg_conflict(gate: Gate, start: int) -> bool:
        """Different 1q gates cannot share a frequency group concurrently."""
        if not awg or len(gate.qubits) != 1 or not gate.is_unitary:
            return False
        group = constraints.frequency_group.get(gate.qubits[0])
        if group is None:
            return False
        signature = (gate.name, gate.params)
        for run in running:
            other = run.gate
            if len(other.qubits) != 1 or not other.is_unitary:
                continue
            if constraints.frequency_group.get(other.qubits[0]) != group:
                continue
            if run.start == start and (other.name, other.params) == signature:
                continue  # identical gate co-starting: allowed
            if run.end > start:
                return True
        return False

    def feedline_conflict(gate: Gate, start: int) -> bool:
        """Feedline operations (measure, prep) share the readout line.

        Same-kind operations on one feedline may start together; a new
        one cannot start while a different one (or a non-co-started one)
        is still in flight.
        """
        if not feedlines or not _uses_feedline(gate):
            return False
        line = constraints.feedline.get(gate.qubits[0])
        if line is None:
            return False
        for run in running:
            if not _uses_feedline(run.gate):
                continue
            if constraints.feedline.get(run.gate.qubits[0]) != line:
                continue
            if run.start == start and run.gate.name == gate.name:
                continue  # identical kind co-starting: one shared tone
            if run.end > start:
                return True
        return False

    def parking_conflicts(gate: Gate, start: int, dur: int) -> bool:
        """Check parking in both directions for a candidate gate."""
        # The candidate's operands must not be parked.
        for q in gate.qubits:
            if parked_until[q] > start:
                return True
        if not parking or gate.name != "cz":
            return False
        parked = constraints.parked_qubits(
            gate.qubits[0], gate.qubits[1], device.neighbours
        )
        # Parked spectators must be idle for the whole CZ window; since
        # we only look at current occupancy, require them free by start
        # and not running anything that overlaps [start, start + dur).
        for q in parked:
            if qubit_free[q] > start:
                return True
        return False

    def can_start(index: int, start: int) -> bool:
        gate = dag.gate(index)
        if deps_done_by(index) > start:
            return False
        qubits = touched_qubits(gate, circuit.num_qubits)
        if any(qubit_free[q] > start for q in qubits):
            return False
        dur = duration(gate)
        if gate.is_unitary or gate.is_measurement:
            if parking_conflicts(gate, start, dur):
                return False
        if awg_conflict(gate, start):
            return False
        if feedline_conflict(gate, start):
            return False
        if (
            serial_two_qubit
            and gate.is_unitary
            and len(gate.qubits) == 2
            and any(
                run.gate.is_unitary and len(run.gate.qubits) == 2
                for run in running
                if run.end > start
            )
        ):
            return False
        return True

    def start_gate(index: int, start: int) -> None:
        gate = dag.gate(index)
        dur = duration(gate)
        items.append(ScheduledGate(gate, start, dur))
        running.append(_Running(gate, start, start + dur))
        qubits = touched_qubits(gate, circuit.num_qubits)
        for q in qubits:
            qubit_free[q] = start + dur
        if parking and gate.name == "cz":
            for q in constraints.parked_qubits(
                gate.qubits[0], gate.qubits[1], device.neighbours
            ):
                parked_until[q] = max(parked_until[q], start + dur)
        done.add(index)
        finished_at[index] = start + dur
        ready.discard(index)
        for succ in dag.successors(index):
            if all(p in done for p in dag.predecessors(succ)):
                ready.add(succ)

    safety = 0
    max_cycles = 64 * (sum(duration(g) for g in circuit.gates) + n_gates + 4)
    while len(done) < n_gates:
        running = [run for run in running if run.end > cycle]
        started = True
        while started:
            started = False
            # Default: the original program order, deterministic and
            # close to the paper's hand schedules; "critical" prefers
            # long dependency tails.
            for index in ready_order():
                if index in done:
                    continue
                if can_start(index, cycle):
                    start_gate(index, cycle)
                    started = True
        cycle += 1
        safety += 1
        if safety > max_cycles:
            raise RuntimeError(
                "constraint scheduler exceeded its cycle budget; "
                "constraints are unsatisfiable or inconsistent"
            )

    schedule = Schedule(
        items,
        circuit.num_qubits,
        device.cycle_time_ns,
        metadata={"awg": awg, "feedlines": feedlines, "parking": parking},
    )
    return schedule
