"""Shuttle-aware router for quantum-dot devices (paper Section VI-C).

On dot arrays with empty sites, moving a qubit costs one ``shuttle``
operation instead of a three-CNOT SWAP — but only moves *into* empty
sites.  This router extends the SABRE front-layer scheme with a mixed
move set:

* **shuttle** moves: occupied site -> adjacent empty site, charged a low
  cost;
* **SWAP** moves: two occupied adjacent sites, charged the full
  three-entangler cost (still needed when no useful empty site exists).

Scoring mirrors SABRE (front-layer distance + weighted look-ahead) with
the move's own cost added, so the router naturally prefers shuttling
through sparse regions and falls back to SWAPs in dense ones — exactly
the "specialized mapper" the paper says dot hardware needs.
"""

from __future__ import annotations

from ...core.circuit import Circuit
from ...core.dag import DependencyGraph
from ...core import gates as G
from ...core.gates import Gate
from ...devices.device import Device
from ..placement import FREE, Placement
from .base import RoutingError, RoutingResult, device_path
from .family import _extended_set, _score

__all__ = ["route_shuttle"]


def route_shuttle(
    circuit: Circuit,
    device: Device,
    placement: Placement | None = None,
    *,
    lookahead: int = 20,
    extended_weight: float = 0.5,
    shuttle_cost: float = 1.0,
    swap_cost: float = 3.0,
) -> RoutingResult:
    """Route with mixed shuttle/SWAP moves.

    Args:
        circuit: Input circuit on program qubits.
        device: Target device; shuttles are only proposed when it has the
            ``"shuttling"`` feature (otherwise this reduces to SABRE's
            move set with explicit costs).
        placement: Initial placement (default trivial — free sites are
            the physical qubits beyond ``circuit.num_qubits``).
        lookahead: Look-ahead window in two-qubit gates.
        extended_weight: Weight of the look-ahead distance term.
        shuttle_cost: Cost charged per shuttle move.
        swap_cost: Cost charged per SWAP move.

    Returns:
        A connectivity-satisfying :class:`RoutingResult`; metadata counts
        shuttles and SWAPs separately (``added_swaps`` counts both, as
        the total routing-move count).
    """
    can_shuttle = "shuttling" in device.features
    current = (placement or Placement.trivial(device.num_qubits, circuit.num_qubits)).copy()
    initial = current.copy()
    dag = DependencyGraph(circuit)
    dist = device.distance_matrix
    two_qubit = [gate.is_two_qubit for gate in circuit.gates]

    done: set[int] = set()
    front = set(dag.front_layer())
    out = Circuit(device.num_qubits, name=circuit.name)
    shuttles = 0
    swaps = 0
    stall = 0
    max_stall = 4 * device.num_qubits * device.num_qubits + 16

    def executable(index: int) -> bool:
        gate = dag.gate(index)
        if len(gate.qubits) > 2:
            raise RoutingError(f"decompose {gate.name} before routing")
        if len(gate.qubits) == 2 and gate.is_unitary:
            return device.connected(
                current.phys(gate.qubits[0]), current.phys(gate.qubits[1])
            )
        return True

    def emit(index: int) -> None:
        gate = dag.gate(index)
        out.append(gate.remap({q: current.phys(q) for q in gate.qubits}))
        done.add(index)
        front.discard(index)
        for succ in dag.successors(index):
            if all(p in done for p in dag.predecessors(succ)):
                front.add(succ)

    def candidate_moves() -> list[tuple[str, int, int, float]]:
        """(kind, phys_a, phys_b, cost) moves touching a front qubit."""
        active: set[int] = set()
        for index in front:
            gate = dag.gate(index)
            if len(gate.qubits) == 2:
                active.add(current.phys(gate.qubits[0]))
                active.add(current.phys(gate.qubits[1]))
        moves: list[tuple[str, int, int, float]] = []
        seen: set[tuple[int, int]] = set()
        for phys in active:
            for neighbour in device.neighbours[phys]:
                key = (min(phys, neighbour), max(phys, neighbour))
                if key in seen:
                    continue
                seen.add(key)
                neighbour_free = current.prog(neighbour) == FREE
                phys_free = current.prog(phys) == FREE
                if can_shuttle and (neighbour_free or phys_free):
                    moves.append(("shuttle", key[0], key[1], shuttle_cost))
                else:
                    moves.append(("swap", key[0], key[1], swap_cost))
        return moves

    while front:
        progressed = True
        while progressed:
            progressed = False
            for index in sorted(front):
                if executable(index):
                    emit(index)
                    progressed = True
                    stall = 0
        if not front:
            break

        blocked = [dag.gate(i) for i in sorted(front)]
        extended = _extended_set(dag.successors, two_qubit, front, lookahead)
        moves = candidate_moves()
        if not moves:
            raise RoutingError("no candidate moves; is the device connected?")

        best = None
        for kind, pa, pb, cost in moves:
            current.apply_swap(pa, pb)
            score = _score(blocked, extended, dag, current, dist, extended_weight)
            current.apply_swap(pa, pb)
            key = (score + 0.1 * cost, cost, pa, pb)
            if best is None or key < best[0]:
                best = (key, kind, pa, pb)

        assert best is not None
        _, kind, pa, pb = best
        if kind == "shuttle":
            out.append(Gate("shuttle", (pa, pb)))
            shuttles += 1
        else:
            out.append(G.swap(pa, pb))
            swaps += 1
        current.apply_swap(pa, pb)
        stall += 1
        if stall > max_stall:
            gate = dag.gate(min(front))
            path = device_path(
                device, current.phys(gate.qubits[0]), current.phys(gate.qubits[1])
            )
            for step in range(len(path) - 2):
                out.append(G.swap(path[step], path[step + 1]))
                current.apply_swap(path[step], path[step + 1])
                swaps += 1
            stall = 0

    return RoutingResult(
        out,
        initial,
        current,
        shuttles + swaps,
        "shuttle",
        metadata={
            "shuttles": shuttles,
            "swaps": swaps,
            "move_cost": shuttles * shuttle_cost + swaps * swap_cost,
            "lookahead": lookahead,
        },
    )
