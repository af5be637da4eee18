"""Operation scheduling with real gate durations.

The third mapper block of Qmap (Section V): assign every gate a start
cycle such that dependencies, qubit exclusivity, and (optionally) the
control-electronics constraints hold, minimising the overall *latency* —
"the execution time of the algorithm when considering the real gate
duration".  Time is discretised into clock cycles, "the greatest common
divisor of the gates' duration" (Section VI-B); durations come from the
:class:`~repro.devices.device.Device`.

Two entry points:

* :func:`asap_schedule` / :func:`alap_schedule` — dependency-only list
  scheduling (the paper's "operations are scheduled only considering the
  dependencies between them");
* :func:`schedule_with_constraints` in :mod:`repro.mapping.control` —
  additionally enforces shared-AWG, feedline and CZ-parking rules.

Cost model.  ASAP and ALAP make one pass over the gates.  A call asks
the device for each gate name's duration once, and only conditioned
gates and operand-less barriers go through :func:`touched_qubits`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from ..core.circuit import Circuit
from ..core.gates import Gate
from ..devices.device import Device

__all__ = ["ScheduledGate", "Schedule", "asap_schedule", "alap_schedule"]


@dataclass(frozen=True)
class ScheduledGate:
    """One gate with its start cycle and duration."""

    gate: Gate
    start: int
    duration: int

    @property
    def end(self) -> int:
        """First cycle after the gate finishes."""
        return self.start + self.duration


@dataclass
class Schedule:
    """A timed gate list over ``num_qubits`` physical qubits."""

    items: list[ScheduledGate]
    num_qubits: int
    cycle_time_ns: float = 20.0
    metadata: dict = field(default_factory=dict)

    @property
    def latency(self) -> int:
        """Total latency in cycles (makespan)."""
        return max((item.end for item in self.items), default=0)

    @property
    def latency_ns(self) -> float:
        """Total latency in nanoseconds."""
        return self.latency * self.cycle_time_ns

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def gates_starting_at(self, cycle: int) -> list[ScheduledGate]:
        return [item for item in self.items if item.start == cycle]

    # Ordering key for gate lists: start cycle, then operand tuple, then
    # gate name.  Two distinct gates can share (start, qubits) — e.g. a
    # conditioned single-qubit gate and the measure feeding it modelled
    # on the same line — so sorting by start (or start+qubits) alone
    # leaves their order to the sort's input order, which varies between
    # construction paths and made serialised schedules nondeterministic.
    @staticmethod
    def _order_key(item: ScheduledGate):
        return (item.start, item.gate.qubits, item.gate.name)

    def circuit(self) -> Circuit:
        """The schedule's gates as a circuit in start-time order."""
        ordered = sorted(
            (item for item in self.items if not item.gate.is_barrier),
            key=self._order_key,
        )
        return Circuit(self.num_qubits, (item.gate for item in ordered))

    def parallelism(self) -> float:
        """Mean number of gates in flight per busy cycle."""
        if not self.items:
            return 0.0
        busy = sum(item.duration for item in self.items if not item.gate.is_barrier)
        return busy / max(self.latency, 1)

    def validate(self) -> list[str]:
        """Detect overlapping gates on one qubit; returns problem strings."""
        problems: list[str] = []
        per_qubit: dict[int, list[ScheduledGate]] = {}
        for item in self.items:
            if item.gate.is_barrier:
                continue
            for q in item.gate.qubits:
                per_qubit.setdefault(q, []).append(item)
        for q, gate_list in per_qubit.items():
            gate_list.sort(key=self._order_key)
            for first, second in zip(gate_list, gate_list[1:]):
                if second.start < first.end:
                    problems.append(
                        f"qubit {q}: {second.gate} (cycle {second.start}) "
                        f"overlaps {first.gate} (ends {first.end})"
                    )
        return problems

    def table(self) -> str:
        """A human-readable cycle table (one row per start cycle)."""
        rows: dict[int, list[str]] = {}
        for item in sorted(self.items, key=self._order_key):
            if item.gate.is_barrier:
                continue
            rows.setdefault(item.start, []).append(str(item.gate))
        lines = [f"latency: {self.latency} cycles ({self.latency_ns:.0f} ns)"]
        for cycle in sorted(rows):
            lines.append(f"  cycle {cycle:4d} | " + " ; ".join(rows[cycle]))
        return "\n".join(lines)


def touched_qubits(gate: Gate, num_qubits: int) -> tuple[int, ...]:
    """Qubit lines a gate occupies for scheduling purposes.

    Barriers without operands span every line; a classical condition is
    modelled as touching its bit's qubit line (the feedforward wire).
    """
    qubits = gate.qubits or tuple(range(num_qubits))
    if gate.condition is not None and gate.condition[0] not in qubits:
        qubits = qubits + (gate.condition[0],)
    return qubits


def _durations(gates: list[Gate], device: Device) -> dict[str, int]:
    """Cycles per gate name, asked of the device once; barriers take none."""
    names = {gate.name for gate in gates}
    return {name: 0 if name == "barrier" else device.duration(name) for name in names}


def _asap_starts(
    gates: list[Gate], num_qubits: int, device: Device
) -> tuple[list[int], list[int]]:
    """Start cycle and duration of each of ``gates``, scheduled ASAP in order."""
    free_at = [0] * num_qubits
    durations = _durations(gates, device)
    starts: list[int] = []
    lengths: list[int] = []
    for gate in gates:
        qubits = gate.qubits
        if gate.condition is not None or not qubits:
            qubits = touched_qubits(gate, num_qubits)
        duration = durations[gate.name]
        if len(qubits) == 1:
            (q,) = qubits
            start = free_at[q]
            free_at[q] = start + duration
        else:
            start = max(map(free_at.__getitem__, qubits), default=0)
            for q in qubits:
                free_at[q] = start + duration
        starts.append(start)
        lengths.append(duration)
    return starts, lengths


def asap_schedule(circuit: Circuit, device: Device) -> Schedule:
    """As-soon-as-possible schedule under dependencies and durations.

    Every gate starts at the first cycle where all its operand qubits are
    free; barriers synchronise their qubits without taking time.
    """
    starts, durations = _asap_starts(circuit.gates, circuit.num_qubits, device)
    items = list(map(ScheduledGate, circuit.gates, starts, durations))
    return Schedule(items, circuit.num_qubits, device.cycle_time_ns)


def alap_schedule(circuit: Circuit, device: Device) -> Schedule:
    """As-late-as-possible schedule (same latency as ASAP, gates pushed late).

    Computed by ASAP-scheduling the reversed gate list and mirroring the
    start times.
    """
    starts, durations = _asap_starts(circuit.gates[::-1], circuit.num_qubits, device)
    total = max(map(add, starts, durations), default=0)
    ends = map(add, reversed(starts), reversed(durations))
    mirrored = [total - end for end in ends]
    items = list(map(ScheduledGate, circuit.gates, mirrored, durations[::-1]))
    return Schedule(items, circuit.num_qubits, device.cycle_time_ns)
