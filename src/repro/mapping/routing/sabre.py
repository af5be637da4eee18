"""SABRE-style heuristic router with look-ahead and decay.

Re-implementation of the heuristic search approach of Li, Ding and Xie,
"Tackling the qubit mapping problem for NISQ-era quantum devices"
(ASPLOS 2019) — reference [40] of the paper, cited among the heuristic
(search) algorithms in Section III-B.  The router keeps the *front layer*
of the dependency graph (the gates whose predecessors have all been
scheduled, cf. the execution-snapshot colouring of Section VI-B) and,
when no front gate is executable, greedily applies the SWAP that most
reduces a weighted distance score:

* the mean distance of the front-layer gate operands (mandatory work),
* plus ``extended_weight`` times the mean distance over a look-ahead
  window of upcoming two-qubit gates (the "look-ahead feature" of
  Section III-B),
* scaled by a decay factor on recently swapped qubits, which steers the
  search away from undoing its own work and spreads SWAPs across the
  chip.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from ...core.circuit import Circuit
from ...core.dag import DependencyGraph
from ...core import gates as G
from ...devices.device import Device
from ...obs import add_counter
from ...resilience.deadline import current_deadline
from ..placement import Placement
from .base import RoutingError, RoutingResult, device_path

__all__ = ["route_sabre"]

#: Decay added to a qubit each time it participates in a SWAP.
_DECAY_STEP = 0.001
#: Number of SWAP decisions after which decay factors reset.
_DECAY_RESET = 5


def route_sabre(
    circuit: Circuit,
    device: Device,
    placement: Placement | None = None,
    *,
    lookahead: int = 20,
    extended_weight: float = 0.5,
    use_decay: bool = True,
    distance_matrix=None,
    swap_penalty=None,
    commutation: bool = False,
) -> RoutingResult:
    """Route ``circuit`` with the SABRE front-layer heuristic.

    Args:
        circuit: Input circuit on program qubits.
        device: Target device.
        placement: Initial placement (default trivial).
        lookahead: Size of the extended (look-ahead) gate set; 0 disables
            look-ahead, reducing the router to a greedy front-layer one.
        extended_weight: Relative weight of the look-ahead term.
        use_decay: Enable the decay tie-breaker.
        distance_matrix: Optional replacement for the device's hop-count
            matrix — e.g. error-weighted distances for reliability-aware
            routing (see :mod:`repro.mapping.routing.reliability`).
        swap_penalty: Optional ``(phys_a, phys_b) -> float`` charging each
            candidate SWAP its own cost (e.g. the error of executing the
            SWAP on that edge), added to the distance score.
        commutation: Relax gate ordering with the commutation rules of
            [58] (see :mod:`repro.core.commutation`), enlarging the
            front layer with commuting gates.

    Returns:
        A connectivity-satisfying :class:`RoutingResult`.
    """
    current = (placement or Placement.trivial(device.num_qubits, circuit.num_qubits)).copy()
    initial = current.copy()
    dag = DependencyGraph(circuit, commutation=commutation)
    dist = distance_matrix if distance_matrix is not None else device.distance_matrix

    done: set[int] = set()
    front = set(dag.front_layer())
    out = Circuit(device.num_qubits, name=circuit.name)
    added = 0
    decay = [1.0] * device.num_qubits
    decisions = 0
    stall = 0
    max_stall = 4 * device.num_qubits * device.num_qubits + 16
    # Per-iteration observability totals, accumulated in locals so the
    # hot loop never touches the tracer; reported once at the end.
    candidates_scored = 0
    forced_routes = 0

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

    deadline = current_deadline()
    while front:
        # Cooperative deadline poll: one decision per iteration, so the
        # check costs a single clock read per emitted SWAP.
        if deadline is not None:
            deadline.check("sabre routing")
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
        candidates_scored += len(candidates)
        best_swap, best_score = None, None
        for pa, pb in candidates:
            score = scorer.score(pa, pb)
            if swap_penalty is not None:
                score += swap_penalty(pa, pb)
            if use_decay:
                score *= max(decay[pa], decay[pb])
            key = (score, pa, pb)
            if best_score is None or key < best_score:
                best_score, best_swap = key, (pa, pb)

        assert best_swap is not None
        pa, pb = best_swap
        out.append(G.swap(pa, pb))
        current.apply_swap(pa, pb)
        added += 1
        stall += 1
        if stall > max_stall:
            # Safety valve: the heuristic is cycling (possible on adverse
            # decay/weight settings); force-route the first blocked gate
            # along a shortest path, which always makes progress.
            gate = dag.gate(min(front))
            pa = current.phys(gate.qubits[0])
            pb = current.phys(gate.qubits[1])
            path = device_path(device, pa, pb)
            for step in range(len(path) - 2):
                out.append(G.swap(path[step], path[step + 1]))
                current.apply_swap(path[step], path[step + 1])
                added += 1
            stall = 0
            forced_routes += 1
        decisions += 1
        if use_decay:
            if decisions % _DECAY_RESET == 0:
                decay = [1.0] * device.num_qubits
            decay[pa] += _DECAY_STEP
            decay[pb] += _DECAY_STEP

    add_counter("sabre.swap_candidates_scored", candidates_scored)
    add_counter("sabre.swap_decisions", decisions)
    if forced_routes:
        add_counter("sabre.forced_routes", forced_routes)
    return RoutingResult(
        out,
        initial,
        current,
        added,
        "sabre",
        metadata={"lookahead": lookahead, "extended_weight": extended_weight},
    )


def _candidate_swaps(
    blocked, placement: Placement, device: Device
) -> list[tuple[int, int]]:
    """Undirected coupling edges touching a qubit of a blocked gate."""
    incident = device.incident_edges
    swaps: set[tuple[int, int]] = set()
    for gate in blocked:
        if len(gate.qubits) == 2:
            swaps.update(incident[placement.phys(gate.qubits[0])])
            swaps.update(incident[placement.phys(gate.qubits[1])])
    return sorted(swaps)


def _extended_set(
    dag: DependencyGraph, done: set[int], front: set[int], limit: int
) -> list[int]:
    """Up to ``limit`` upcoming two-qubit gates past the front layer."""
    if limit <= 0:
        return []
    extended: list[int] = []
    seen = set(front)
    queue = deque(sorted(front))
    while queue and len(extended) < limit:
        node = queue.popleft()
        for succ in dag.successors(node):
            if succ in seen or succ in done:
                continue
            seen.add(succ)
            queue.append(succ)
            if dag.gate(succ).is_two_qubit:
                extended.append(succ)
                if len(extended) >= limit:
                    break
    return extended


class _SwapScorer:
    """Incremental evaluation of :func:`_score` under one candidate SWAP.

    Built once per routing decision from the *current* placement, then
    queried once per candidate edge.  A SWAP of physical qubits
    ``(pa, pb)`` only changes the distance of gates with an operand on
    ``pa`` or ``pb``, so the scorer caches the base distance sums and
    re-evaluates just the affected gates — the full front + extended
    rescore of the seed implementation is gone from the candidate loop.

    With the default hop-count matrices every term is a small integer, so
    the delta update is bit-identical to a full rescore.
    """

    __slots__ = ("_entries", "_by_phys", "_front_base", "_front_n", "_ext_base",
                 "_ext_n", "_weight", "_dist")

    def __init__(
        self,
        blocked,
        extended: list[int],
        dag: DependencyGraph,
        placement: Placement,
        dist,
        extended_weight: float,
    ) -> None:
        entries: list[tuple[int, int, bool]] = []
        for gate in blocked:
            if len(gate.qubits) == 2:
                a, b = gate.qubits
                entries.append((placement.phys(a), placement.phys(b), True))
        front_n = len(entries)
        for index in extended:
            a, b = dag.gate(index).qubits
            entries.append((placement.phys(a), placement.phys(b), False))
        front_base = 0
        ext_base = 0
        by_phys: dict[int, list[int]] = {}
        for i, (qa, qb, is_front) in enumerate(entries):
            d = dist[qa][qb]
            if is_front:
                front_base += d
            else:
                ext_base += d
            by_phys.setdefault(qa, []).append(i)
            if qb != qa:
                by_phys.setdefault(qb, []).append(i)
        self._entries = entries
        self._by_phys = by_phys
        self._front_base = front_base
        self._front_n = max(front_n, 1)
        self._ext_base = ext_base
        self._ext_n = len(extended)
        self._weight = extended_weight
        self._dist = dist

    def deltas(self, pa: int, pb: int):
        """Change of the (front, extended) distance sums under the SWAP."""
        dist = self._dist
        entries = self._entries
        by_phys = self._by_phys
        d_front = 0
        d_ext = 0
        seen: set[int] = set()
        for i in chain(by_phys.get(pa, ()), by_phys.get(pb, ())):
            if i in seen:
                continue
            seen.add(i)
            qa, qb, is_front = entries[i]
            na = pb if qa == pa else (pa if qa == pb else qa)
            nb = pb if qb == pa else (pa if qb == pb else qb)
            delta = dist[na][nb] - dist[qa][qb]
            if is_front:
                d_front += delta
            else:
                d_ext += delta
        return d_front, d_ext

    def score(self, pa: int, pb: int) -> float:
        """The :func:`_score` value after swapping ``pa`` and ``pb``."""
        d_front, d_ext = self.deltas(pa, pb)
        score = (self._front_base + d_front) / self._front_n
        if self._ext_n:
            score += self._weight * (self._ext_base + d_ext) / self._ext_n
        return score


def _score(
    blocked,
    extended: list[int],
    dag: DependencyGraph,
    placement: Placement,
    dist,
    extended_weight: float,
) -> float:
    front_cost = 0.0
    front_n = 0
    for gate in blocked:
        if len(gate.qubits) == 2:
            a, b = gate.qubits
            front_cost += dist[placement.phys(a)][placement.phys(b)]
            front_n += 1
    score = front_cost / max(front_n, 1)
    if extended:
        ext_cost = 0.0
        for index in extended:
            a, b = dag.gate(index).qubits
            ext_cost += dist[placement.phys(a)][placement.phys(b)]
        score += extended_weight * ext_cost / len(extended)
    return score
