"""Quantum device models.

The paper's compiler (Fig. 2) takes two inputs: the algorithm and "a
description of the machine, possibly including the control electronics in
addition to the quantum hardware".  :class:`Device` is that description:

* the **coupling graph** — which ordered qubit pairs may host a two-qubit
  gate.  For IBM QX devices the edges are *directed* (control/target roles
  are fixed, Section IV); for Surface-17 they are symmetric (Section V);
* the **native gate set** and per-gate **durations** in clock cycles;
* optionally the **control-electronics constraints** of Section V
  (shared microwave generators per frequency group, shared measurement
  feedlines, CZ parking), modelled by :class:`ControlConstraints`.

Devices can be serialised to and from plain dictionaries / JSON, mirroring
Qmap's "configuration file" retargetability: *every device is (almost)
equal before the compiler* (Section VI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import networkx as nx

from ..core.circuit import Circuit
from ..core.gates import Gate, canonical_name

__all__ = ["ControlConstraints", "Device", "Violation"]

#: Fallback duration (in cycles) for gates without an explicit entry.
DEFAULT_DURATION = 1


@dataclass(frozen=True)
class ControlConstraints:
    """Classical-control restrictions of a superconducting chip (Sec. V).

    Attributes:
        frequency_group: Qubit index -> frequency group id.  Lower ids are
            *higher* frequencies (group 0 is f1, with f1 > f2 > f3).
            Qubits in the same group share one arbitrary waveform
            generator: in any cycle they may all run the *same*
            single-qubit gate, but two *different* single-qubit gates in
            one group cannot start in the same cycle.
        feedline: Qubit index -> measurement feedline id.  Measurements on
            one feedline may start together, but a new measurement cannot
            start while another on the same feedline is in flight.
        park_on_cz: When True, a CZ between a higher- and lower-frequency
            qubit forces every *other* neighbour of the detuned (higher
            frequency) qubit that sits at the operating frequency to be
            "parked": no gate may act on it while the CZ runs.
    """

    frequency_group: Mapping[int, int] = field(default_factory=dict)
    feedline: Mapping[int, int] = field(default_factory=dict)
    park_on_cz: bool = True

    def same_awg(self, a: int, b: int) -> bool:
        """True when qubits ``a`` and ``b`` share a waveform generator."""
        ga = self.frequency_group.get(a)
        gb = self.frequency_group.get(b)
        return ga is not None and ga == gb

    def same_feedline(self, a: int, b: int) -> bool:
        """True when qubits ``a`` and ``b`` share a measurement feedline."""
        fa = self.feedline.get(a)
        fb = self.feedline.get(b)
        return fa is not None and fa == fb

    def parked_qubits(self, a: int, b: int, neighbours: Mapping[int, Sequence[int]]) -> set[int]:
        """Qubits that must park while a CZ runs on ``(a, b)``.

        Args:
            a, b: The CZ operands.
            neighbours: Adjacency of the device's undirected coupling
                graph.

        Returns:
            The set of spectator qubits frozen for the CZ duration
            (empty when parking is disabled or frequencies are unknown).
        """
        if not self.park_on_cz:
            return set()
        fa = self.frequency_group.get(a)
        fb = self.frequency_group.get(b)
        if fa is None or fb is None or fa == fb:
            return set()
        # The higher-frequency operand (lower group id) detunes down to
        # the other operand's frequency; spectators at that operating
        # frequency adjacent to the detuned qubit would interact.
        high, low = (a, b) if fa < fb else (b, a)
        operating = max(fa, fb)
        parked = set()
        for n in neighbours.get(high, ()):  # spectators of the detuned qubit
            if n in (a, b):
                continue
            if self.frequency_group.get(n) == operating:
                parked.add(n)
        return parked


@dataclass(frozen=True)
class Violation:
    """One way a gate fails to satisfy the device constraints."""

    gate_index: int
    gate: Gate
    reason: str

    def __str__(self) -> str:
        return f"gate #{self.gate_index} ({self.gate}): {self.reason}"


class Device:
    """A quantum processor description the mapper compiles against.

    Args:
        name: Identifier ("ibm_qx4", "surface17", ...).
        num_qubits: Number of physical qubits.
        edges: Ordered pairs ``(control, target)`` on which the native
            two-qubit gate may act.  For devices with symmetric two-qubit
            gates pass each physical connection once in either order and
            set ``symmetric=True``.
        native_gates: Canonical gate names executable without further
            decomposition (measure/prep/barrier are implicitly allowed).
        symmetric: Whether two-qubit gates work in both orientations of an
            edge (Surface-17: yes; IBM QX: no).
        two_qubit_gate: Name of the native entangling gate.
        durations: Gate name -> duration in clock cycles.
        cycle_time_ns: Duration of one clock cycle in nanoseconds.
        positions: Optional 2D coordinates per qubit for visualisation.
        constraints: Optional control-electronics restrictions.
        features: Capability flags beyond the gate set; currently
            ``"shuttling"`` marks quantum-dot style devices on which a
            qubit can physically move into an empty neighbouring site
            (paper Section VI-C).
    """

    def __init__(
        self,
        name: str,
        num_qubits: int,
        edges: Iterable[tuple[int, int]],
        native_gates: Iterable[str],
        *,
        symmetric: bool = True,
        two_qubit_gate: str = "cnot",
        durations: Mapping[str, int] | None = None,
        cycle_time_ns: float = 20.0,
        positions: Mapping[int, tuple[float, float]] | None = None,
        constraints: ControlConstraints | None = None,
        features: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.num_qubits = int(num_qubits)
        edge_set = set()
        for a, b in edges:
            if not (0 <= a < num_qubits and 0 <= b < num_qubits) or a == b:
                raise ValueError(f"invalid edge ({a}, {b})")
            edge_set.add((a, b))
            if symmetric:
                edge_set.add((b, a))
        self.edges: frozenset[tuple[int, int]] = frozenset(edge_set)
        self.native_gates: frozenset[str] = frozenset(
            canonical_name(g) for g in native_gates
        ) | {"measure", "prep_z", "barrier", "i"}
        self.symmetric = bool(symmetric)
        self.two_qubit_gate = canonical_name(two_qubit_gate)
        self.durations: dict[str, int] = {
            canonical_name(k): int(v) for k, v in (durations or {}).items()
        }
        self.cycle_time_ns = float(cycle_time_ns)
        self.positions = dict(positions) if positions else None
        self.constraints = constraints
        self.features: frozenset[str] = frozenset(features)
        if "shuttling" in self.features:
            # Shuttle is executable wherever the hardware supports it.
            self.native_gates = self.native_gates | {"shuttle"}

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------

    @cached_property
    def graph(self) -> nx.DiGraph:
        """Directed coupling graph (nodes = physical qubits)."""
        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_qubits))
        g.add_edges_from(self.edges)
        return g

    @cached_property
    def undirected(self) -> nx.Graph:
        """Undirected coupling graph (connectivity regardless of roles)."""
        g = nx.Graph()
        g.add_nodes_from(range(self.num_qubits))
        g.add_edges_from(self.edges)
        return g

    @cached_property
    def neighbours(self) -> dict[int, tuple[int, ...]]:
        """Adjacency of the undirected coupling graph."""
        return {
            q: tuple(sorted(self.undirected.neighbors(q)))
            for q in range(self.num_qubits)
        }

    @cached_property
    def distance_matrix(self) -> list[list[int]]:
        """All-pairs shortest-path hop counts on the undirected graph.

        Unreachable pairs get a large sentinel (num_qubits squared) so
        heuristics still order candidates sensibly on disconnected chips.
        """
        sentinel = self.num_qubits * self.num_qubits
        dist = [[sentinel] * self.num_qubits for _ in range(self.num_qubits)]
        for src, lengths in nx.all_pairs_shortest_path_length(self.undirected):
            for dst, d in lengths.items():
                dist[src][dst] = d
        return dist

    @cached_property
    def distance_flat(self) -> list[int]:
        """Row-major flattening of :attr:`distance_matrix`.

        ``distance_flat[a * num_qubits + b]`` equals
        ``distance_matrix[a][b]``; search kernels use it to turn the
        double indirection of nested lists into one multiply-add lookup.
        """
        return [d for row in self.distance_matrix for d in row]

    def distance(self, a: int, b: int) -> int:
        """Hops between physical qubits ``a`` and ``b``."""
        return self.distance_matrix[a][b]

    def connected(self, a: int, b: int) -> bool:
        """True when a two-qubit gate may act on ``(a, b)`` in some order."""
        return (a, b) in self.edges or (b, a) in self.edges

    def has_edge(self, control: int, target: int) -> bool:
        """True when the orientation ``control -> target`` is allowed."""
        return (control, target) in self.edges

    @cached_property
    def undirected_edge_list(self) -> tuple[tuple[int, int], ...]:
        """Each physical connection once, as a sorted pair (cached)."""
        return tuple(sorted({(min(a, b), max(a, b)) for a, b in self.edges}))

    @cached_property
    def incident_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-qubit tuple of the undirected edges touching that qubit.

        Routers use this to enumerate candidate SWAPs around the active
        qubits without scanning the whole edge list.
        """
        incident: list[list[tuple[int, int]]] = [[] for _ in range(self.num_qubits)]
        for a, b in self.undirected_edge_list:
            incident[a].append((a, b))
            incident[b].append((a, b))
        return tuple(tuple(edges) for edges in incident)

    @cached_property
    def routing_tables(self) -> dict:
        """Tables the routers build for this device on first use and keep
        for its lifetime (:mod:`repro.mapping.routing`): edge arrays, the
        hop matrix in the native kernels' forms, reliability's weighted
        matrices.  They are ``array.array`` objects and plain values, so
        the device still pickles.
        """
        return {}

    def undirected_edges(self) -> list[tuple[int, int]]:
        """Each physical connection once, as a sorted pair."""
        return list(self.undirected_edge_list)

    @cached_property
    def _shortest_path_cache(self):
        # cached_property builds this closure once *per instance*, so the
        # lru_cache is keyed only on (a, b) but can never be shared
        # between devices — two same-size chips with different couplings
        # must not serve each other's paths.
        @lru_cache(maxsize=None)
        def _path(a: int, b: int) -> tuple[int, ...]:
            try:
                return tuple(nx.shortest_path(self.undirected, a, b))
            except nx.NetworkXNoPath:
                raise ValueError(
                    f"no path between qubits {a} and {b} on device "
                    f"{self.name!r}: the coupling graph is disconnected"
                ) from None

        return _path

    def shortest_path(self, a: int, b: int) -> list[int]:
        """A shortest undirected path from ``a`` to ``b`` (inclusive).

        Raises:
            ValueError: When ``a`` and ``b`` lie in different connected
                components (:meth:`distance` returns the
                ``num_qubits**2`` sentinel for such pairs instead).
        """
        return list(self._shortest_path_cache(a, b))

    # ------------------------------------------------------------------
    # Gate admissibility
    # ------------------------------------------------------------------

    def duration(self, gate: Gate | str) -> int:
        """Duration of ``gate`` in clock cycles."""
        name = gate if isinstance(gate, str) else gate.name
        return self.durations.get(canonical_name(name), DEFAULT_DURATION)

    def duration_ns(self, gate: Gate | str) -> float:
        """Duration of ``gate`` in nanoseconds."""
        return self.duration(gate) * self.cycle_time_ns

    def is_native(self, gate: Gate) -> bool:
        """True when the gate name is in the native set."""
        return gate.name in self.native_gates

    def allows(self, gate: Gate) -> bool:
        """True when ``gate`` is executable as-is on this device."""
        return not self.violation(gate)

    def violation(self, gate: Gate) -> str | None:
        """Explain why ``gate`` cannot run, or ``None`` when it can."""
        if gate.is_barrier:
            return None
        if gate.name not in self.native_gates:
            return f"gate {gate.name!r} is not native (native: {sorted(self.native_gates)})"
        if len(gate.qubits) == 2:
            a, b = gate.qubits
            if not self.connected(a, b):
                return f"qubits {a} and {b} are not connected"
            if not self.symmetric and not gate.is_symmetric and not self.has_edge(a, b):
                return (
                    f"edge {a}->{b} has the wrong direction "
                    f"(only {b}->{a} is available)"
                )
        if len(gate.qubits) > 2:
            return f"{len(gate.qubits)}-qubit gates are not supported natively"
        return None

    def validate_circuit(self, circuit: Circuit) -> list[Violation]:
        """All constraint violations of ``circuit`` on this device."""
        if circuit.num_qubits > self.num_qubits:
            return [
                Violation(
                    -1,
                    Gate("barrier", ()),
                    f"circuit uses {circuit.num_qubits} qubits but device "
                    f"has {self.num_qubits}",
                )
            ]
        problems = []
        demolition = "demolition_measurement" in self.features
        destroyed: set[int] = set()
        for index, gate in enumerate(circuit.gates):
            reason = self.violation(gate)
            if reason:
                problems.append(Violation(index, gate, reason))
            if demolition:
                if gate.name == "prep_z":
                    destroyed.discard(gate.qubits[0])
                    continue
                dead = destroyed.intersection(gate.qubits)
                if dead and not gate.is_barrier:
                    problems.append(
                        Violation(
                            index,
                            gate,
                            f"qubit {min(dead)} was destroyed by a demolition "
                            "measurement and not re-initialised",
                        )
                    )
                if gate.is_measurement:
                    destroyed.add(gate.qubits[0])
        return problems

    def conforms(self, circuit: Circuit) -> bool:
        """True when every gate of ``circuit`` is executable."""
        return not self.validate_circuit(circuit)

    # ------------------------------------------------------------------
    # Serialisation ("configuration file" retargetability)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dictionary form, JSON-serialisable."""
        data: dict = {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "edges": sorted(self.edges),
            "native_gates": sorted(self.native_gates),
            "symmetric": self.symmetric,
            "two_qubit_gate": self.two_qubit_gate,
            "durations": dict(sorted(self.durations.items())),
            "cycle_time_ns": self.cycle_time_ns,
        }
        if self.features:
            data["features"] = sorted(self.features)
        if self.positions:
            data["positions"] = {str(q): list(p) for q, p in self.positions.items()}
        if self.constraints:
            data["constraints"] = {
                "frequency_group": {
                    str(q): g for q, g in self.constraints.frequency_group.items()
                },
                "feedline": {str(q): f for q, f in self.constraints.feedline.items()},
                "park_on_cz": self.constraints.park_on_cz,
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Device":
        """Inverse of :meth:`to_dict`."""
        constraints = None
        if "constraints" in data:
            raw = data["constraints"]
            constraints = ControlConstraints(
                frequency_group={int(q): g for q, g in raw.get("frequency_group", {}).items()},
                feedline={int(q): f for q, f in raw.get("feedline", {}).items()},
                park_on_cz=raw.get("park_on_cz", True),
            )
        positions = None
        if "positions" in data:
            positions = {int(q): tuple(p) for q, p in data["positions"].items()}
        # Dicts produced by to_dict carry fully expanded edges, but a
        # hand-written config may list each connection once.  Passing the
        # flag through the constructor expands reverse orientations in
        # both cases (the expansion is idempotent on expanded inputs), so
        # `symmetric=True` always implies `has_edge` both ways.
        return cls(
            data["name"],
            data["num_qubits"],
            [tuple(e) for e in data["edges"]],
            data["native_gates"],
            symmetric=bool(data.get("symmetric", True)),
            two_qubit_gate=data.get("two_qubit_gate", "cnot"),
            durations=data.get("durations"),
            cycle_time_ns=data.get("cycle_time_ns", 20.0),
            positions=positions,
            constraints=constraints,
            features=data.get("features", ()),
        )

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise to JSON, optionally writing ``path``."""
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "Device":
        """Load a device from a JSON string or file path."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text()
        else:
            text = source
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        return (
            f"<Device {self.name!r} qubits={self.num_qubits} "
            f"edges={len(self.undirected_edges())} "
            f"native={sorted(self.native_gates - {'measure', 'prep_z', 'barrier', 'i'})}>"
        )
