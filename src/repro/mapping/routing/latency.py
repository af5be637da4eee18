"""Latency-aware router — the routing block of Qmap (paper Section V).

Qmap "uses a heuristic algorithm ... for the routing task.  In this case
the cost function (metric to minimize in the routing step) is the circuit
latency that refers to the execution time of the algorithm when
considering the real gate duration.  This means that the routing path
that results in the lowest latency overhead and therefore maximises the
instruction-level parallelism is selected (looking-back feature)."

This router therefore tracks, *while routing*, the cycle at which every
physical qubit becomes free (an incremental ASAP schedule).  When the
front layer is blocked it evaluates candidate SWAPs on two criteria:

1. the distance improvement of the front (and look-ahead) gates — the
   SWAP must make progress; and
2. the cycle at which the SWAP could *start*, i.e. how well it overlaps
   with gates already scheduled — the looking-back feature: a SWAP on
   qubits that have been idle costs less latency than one that must wait
   for busy qubits.
"""

from __future__ import annotations

from ...core.circuit import Circuit
from ...core.dag import DependencyGraph
from ...core import gates as G
from ...devices.device import Device
from ..placement import Placement
from .base import RoutingError, RoutingResult, device_path
from .sabre import _SwapScorer, _candidate_swaps, _extended_set

__all__ = ["route_latency"]


def route_latency(
    circuit: Circuit,
    device: Device,
    placement: Placement | None = None,
    *,
    lookahead: int = 10,
    extended_weight: float = 0.5,
    latency_weight: float = 0.1,
    commutation: bool = False,
) -> RoutingResult:
    """Route minimising estimated latency (Qmap's cost function).

    Args:
        circuit: Input circuit on program qubits.
        device: Target device (durations drive the latency estimates).
        placement: Initial placement (default trivial; Qmap pairs this
            router with
            :func:`~repro.mapping.placement.assignment_placement`).
        lookahead: Look-ahead window size in two-qubit gates.
        extended_weight: Weight of the look-ahead distance term.
        latency_weight: Weight (per cycle) of the SWAP start-delay term —
            the looking-back feature.  0 disables it, reducing the router
            to plain SABRE scoring.
        commutation: Relax gate ordering with the commutation rules of
            [58] (see :mod:`repro.core.commutation`).

    Returns:
        A connectivity-satisfying :class:`RoutingResult`; its metadata
        carries the router's own latency estimate in cycles.
    """
    current = (placement or Placement.trivial(device.num_qubits, circuit.num_qubits)).copy()
    initial = current.copy()
    dag = DependencyGraph(circuit, commutation=commutation)
    dist = device.distance_matrix

    done: set[int] = set()
    front = set(dag.front_layer())
    out = Circuit(device.num_qubits, name=circuit.name)
    added = 0
    # Incremental ASAP schedule on physical qubits.
    avail = [0] * device.num_qubits
    swap_duration = device.duration("swap")
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
        phys = {q: current.phys(q) for q in gate.qubits}
        out.append(gate.remap(phys))
        start = max((avail[p] for p in phys.values()), default=0)
        finish = start + (0 if gate.is_barrier else device.duration(gate))
        for p in phys.values():
            avail[p] = finish
        done.add(index)
        front.discard(index)
        for succ in dag.successors(index):
            if all(p in done for p in dag.predecessors(succ)):
                front.add(succ)

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
        extended = _extended_set(dag, done, front, lookahead)
        candidates = _candidate_swaps(blocked, current, device)
        if not candidates:
            raise RoutingError("no candidate swaps; is the device connected?")

        scorer = _SwapScorer(
            blocked, extended, dag, current, dist, extended_weight
        )
        best_swap, best_key = None, None
        for pa, pb in candidates:
            dist_score = scorer.score(pa, pb)
            # Looking-back: when could this SWAP start, given the gates
            # already scheduled on its qubits?
            start_delay = max(avail[pa], avail[pb])
            key = (dist_score + latency_weight * start_delay, pa, pb)
            if best_key is None or key < best_key:
                best_key, best_swap = key, (pa, pb)

        assert best_swap is not None
        pa, pb = best_swap
        out.append(G.swap(pa, pb))
        start = max(avail[pa], avail[pb])
        for p in (pa, pb):
            avail[p] = start + swap_duration
        current.apply_swap(pa, pb)
        added += 1
        stall += 1
        if stall > max_stall:
            gate = dag.gate(min(front))
            path = device_path(
                device, current.phys(gate.qubits[0]), current.phys(gate.qubits[1])
            )
            for step in range(len(path) - 2):
                out.append(G.swap(path[step], path[step + 1]))
                current.apply_swap(path[step], path[step + 1])
                added += 1
            stall = 0

    return RoutingResult(
        out,
        initial,
        current,
        added,
        "latency",
        metadata={
            "estimated_latency": max(avail, default=0),
            "lookahead": lookahead,
            "latency_weight": latency_weight,
        },
    )
