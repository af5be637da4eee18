"""The quantum circuit container.

A :class:`Circuit` is an ordered list of :class:`~repro.core.gates.Gate`
instances over a fixed number of qubit lines, exactly the "sequential list
of quantum gates" representation the paper uses as the mapper input
(Section III-A).  The container is deliberately simple; structure such as
the dependency DAG (Section VI-B) is derived on demand by
:mod:`repro.core.dag`.

Circuits also offer a small builder API (``circ.h(0)``,
``circ.cnot(0, 1)``, ...) so examples and workload generators read like
circuit diagrams.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from . import gates as G
from .gates import Gate

__all__ = ["Circuit"]


class Circuit:
    """An ordered sequence of gates on ``num_qubits`` qubit lines.

    Attributes:
        num_qubits: Number of qubit lines.  Gates must only address
            indices below this bound.
        name: Optional human-readable identifier used by reports.
    """

    def __init__(
        self,
        num_qubits: int,
        gates: Iterable[Gate] = (),
        name: str = "",
    ) -> None:
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._gates: list[Gate] = []
        for gate in gates:
            self.append(gate)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    @property
    def gates(self) -> list[Gate]:
        """The gate list (mutable; prefer :meth:`append` for checks)."""
        return self._gates

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits and self._gates == other._gates
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Circuit{label} qubits={self.num_qubits} "
            f"gates={len(self._gates)} depth={self.depth()}>"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def append(self, gate: Gate) -> "Circuit":
        """Append ``gate`` after validating its qubit and condition bit indices."""
        for q in gate.qubits:
            if q >= self.num_qubits:
                raise ValueError(
                    f"gate {gate} addresses qubit {q} but circuit has "
                    f"{self.num_qubits} qubits"
                )
        if gate.condition is not None and gate.condition[0] >= self.num_qubits:
            raise ValueError(
                f"gate {gate} is conditioned on bit {gate.condition[0]} but "
                f"circuit has {self.num_qubits} qubits"
            )
        self._gates.append(gate)
        return self

    def extend(self, more: Iterable[Gate]) -> "Circuit":
        """Append every gate in ``more``."""
        for gate in more:
            self.append(gate)
        return self

    def copy(self, name: str | None = None) -> "Circuit":
        """A shallow copy (gates are immutable, so this is safe)."""
        return Circuit(self.num_qubits, self._gates, name or self.name)

    # Builder helpers -- one per common gate, returning self for chaining.

    def i(self, q: int) -> "Circuit":
        return self.append(G.i(q))

    def x(self, q: int) -> "Circuit":
        return self.append(G.x(q))

    def y(self, q: int) -> "Circuit":
        return self.append(G.y(q))

    def z(self, q: int) -> "Circuit":
        return self.append(G.z(q))

    def h(self, q: int) -> "Circuit":
        return self.append(G.h(q))

    def s(self, q: int) -> "Circuit":
        return self.append(G.s(q))

    def sdg(self, q: int) -> "Circuit":
        return self.append(G.sdg(q))

    def t(self, q: int) -> "Circuit":
        return self.append(G.t(q))

    def tdg(self, q: int) -> "Circuit":
        return self.append(G.tdg(q))

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.append(G.rx(theta, q))

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.append(G.ry(theta, q))

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.append(G.rz(theta, q))

    def u(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.append(G.u(theta, phi, lam, q))

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.append(G.cnot(control, target))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(G.cnot(control, target))

    def cz(self, a: int, b: int) -> "Circuit":
        return self.append(G.cz(a, b))

    def cp(self, theta: float, a: int, b: int) -> "Circuit":
        return self.append(G.cp(theta, a, b))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append(G.swap(a, b))

    def toffoli(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.append(G.toffoli(c1, c2, target))

    def fredkin(self, control: int, a: int, b: int) -> "Circuit":
        return self.append(G.fredkin(control, a, b))

    def measure(self, q: int) -> "Circuit":
        return self.append(G.measure(q))

    def prep_z(self, q: int) -> "Circuit":
        return self.append(G.prep_z(q))

    def measure_all(self) -> "Circuit":
        for q in range(self.num_qubits):
            self.append(G.measure(q))
        return self

    def barrier(self, *qubits: int) -> "Circuit":
        return self.append(G.barrier(*qubits))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def gate_counts(self) -> Counter:
        """Histogram of gate names (barriers excluded)."""
        return Counter(g.name for g in self._gates if not g.is_barrier)

    def count(self, name: str) -> int:
        """Number of gates named ``name`` (after alias resolution)."""
        key = G.canonical_name(name)
        return sum(1 for g in self._gates if g.name == key)

    def size(self) -> int:
        """Total gate count, barriers excluded."""
        return sum(1 for g in self._gates if not g.is_barrier)

    def num_two_qubit_gates(self) -> int:
        """Number of two-qubit unitary gates."""
        return sum(1 for g in self._gates if g.is_two_qubit)

    def two_qubit_gates(self) -> list[Gate]:
        """The two-qubit unitary gates in program order."""
        return [g for g in self._gates if g.is_two_qubit]

    def used_qubits(self) -> set[int]:
        """Indices of qubit lines touched by at least one gate.

        Classical condition bits count as touching their qubit line.
        """
        used: set[int] = set()
        for gate in self._gates:
            used.update(gate.qubits)
            if gate.condition is not None:
                used.add(gate.condition[0])
        return used

    def depth(self, *, count_single_qubit: bool = True) -> int:
        """Number of time-steps under an as-soon-as-possible schedule.

        Each gate takes one time-step; a barrier forces synchronisation of
        the qubits it spans.  With ``count_single_qubit=False`` only
        two-qubit (and larger) gates contribute, giving the "two-qubit
        depth" metric some mapping papers report.
        """
        level = [0] * self.num_qubits
        for gate in self._gates:
            qubits = gate.qubits or tuple(range(self.num_qubits))
            start = max((level[q] for q in qubits), default=0)
            contributes = count_single_qubit or len(gate.qubits) >= 2
            advance = 1 if (contributes and not gate.is_barrier) else 0
            for q in qubits:
                level[q] = start + advance
        return max(level, default=0)

    def moments(self) -> list[list[Gate]]:
        """Greedy ASAP partition of the gates into parallel layers.

        Layer ``k`` contains gates whose operands are all free at step
        ``k``; this matches the "gates vertically adjacent can be executed
        in parallel" reading of the paper's Fig. 5.
        """
        level = [0] * self.num_qubits
        layers: list[list[Gate]] = []
        for gate in self._gates:
            qubits = gate.qubits or tuple(range(self.num_qubits))
            start = max((level[q] for q in qubits), default=0)
            if gate.is_barrier:
                for q in qubits:
                    level[q] = start
                continue
            while len(layers) <= start:
                layers.append([])
            layers[start].append(gate)
            for q in qubits:
                level[q] = start + 1
        return layers

    def interaction_pairs(self) -> Counter:
        """Histogram of unordered qubit pairs coupled by two-qubit gates.

        This is the *interaction graph* placement algorithms match against
        the device coupling graph.
        """
        pairs: Counter = Counter()
        for gate in self._gates:
            if gate.is_two_qubit:
                a, b = gate.qubits
                pairs[(min(a, b), max(a, b))] += 1
        return pairs

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def remap_qubits(
        self, mapping: Mapping[int, int], num_qubits: int | None = None
    ) -> "Circuit":
        """Return a circuit with every qubit ``q`` renamed to ``mapping[q]``.

        Args:
            mapping: Program-qubit to new-index map; must cover every used
                qubit and be injective on them.
            num_qubits: Line count of the result (defaults to the current
                count, or more when the mapping requires it).
        """
        used = self.used_qubits()
        image = [mapping[q] for q in used]
        if len(set(image)) != len(image):
            raise ValueError("qubit mapping is not injective on used qubits")
        top = max(image, default=-1) + 1
        n = num_qubits if num_qubits is not None else max(self.num_qubits, top)
        out = Circuit(n, name=self.name)
        for gate in self._gates:
            relevant = set(gate.qubits)
            if gate.condition is not None:
                relevant.add(gate.condition[0])
            out.append(gate.remap({q: mapping[q] for q in relevant}))
        return out

    def inverse(self) -> "Circuit":
        """The circuit implementing the inverse unitary (reversed gates).

        Raises:
            ValueError: when the circuit contains non-unitary operations.
        """
        out = Circuit(self.num_qubits, name=f"{self.name}_inv" if self.name else "")
        for gate in reversed(self._gates):
            if gate.is_barrier:
                out.append(gate)
            else:
                out.append(gate.inverse())
        return out

    def without(self, *names: str) -> "Circuit":
        """Copy with all gates whose name is in ``names`` removed."""
        keys = {G.canonical_name(n) for n in names}
        return Circuit(
            self.num_qubits,
            (g for g in self._gates if g.name not in keys),
            self.name,
        )

    def only_two_qubit(self) -> "Circuit":
        """Copy with only the two-qubit gates kept (the paper's Fig. 1b)."""
        return Circuit(
            self.num_qubits, (g for g in self._gates if g.is_two_qubit), self.name
        )

    def compose(self, other: "Circuit") -> "Circuit":
        """Concatenation ``self`` then ``other`` (qubit counts may differ)."""
        n = max(self.num_qubits, other.num_qubits)
        out = Circuit(n, self._gates, self.name)
        out.extend(other.gates)
        return out

    @staticmethod
    def from_pairs(
        num_qubits: int, pairs: Sequence[tuple[int, int]], gate: str = "cnot"
    ) -> "Circuit":
        """Build a circuit of two-qubit ``gate``s from (control, target) pairs."""
        key = G.canonical_name(gate)
        circ = Circuit(num_qubits)
        for a, b in pairs:
            circ.append(Gate(key, (a, b)))
        return circ
