"""The SABRE-family routers as they were before the shared loop.

A verbatim copy of the earlier ``route_sabre``, ``route_latency`` and
``route_reliability`` with their helpers (``_candidate_swaps``,
``_extended_set``, ``_SwapScorer``, ``_score``): three front-layer
loops that rebuild the look-ahead set and the scorer at every decision,
and the reliability router's full ``_score`` re-sum between two
``apply_swap`` calls per candidate.  Then the shuttle router's own loop,
which kept the full ``_score`` re-score per candidate after the other
three shared one, with the look-ahead BFS it used (``_extended_set``
over a successor function, here ``_successor_extended_set``; its
``_score`` is the one above).  :mod:`tests.test_routing_reference`
compares :mod:`repro.mapping.routing.family` against it.  Only the
imports and that one helper's name differ.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain

from repro.core import gates as G
from repro.core.circuit import Circuit
from repro.core.dag import DependencyGraph
from repro.core.gates import Gate
from repro.devices.device import Device
from repro.mapping.placement import FREE, Placement
from repro.mapping.routing.base import RoutingError, RoutingResult, device_path
from repro.obs import add_counter
from repro.resilience.deadline import current_deadline
from repro.sim.noise import NoiseModel

__all__ = ["route_latency", "route_reliability", "route_sabre", "route_shuttle"]

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


def route_reliability(
    circuit: Circuit,
    device: Device,
    placement: Placement | None = None,
    *,
    noise: NoiseModel | None = None,
    lookahead: int = 20,
    extended_weight: float = 0.5,
) -> RoutingResult:
    """Route with error-weighted distances from ``noise``.

    Args:
        circuit: Input circuit on program qubits.
        device: Target device.
        placement: Initial placement (default trivial; use
            :func:`~repro.mapping.placement.noise_aware_placement` for the
            full variability-aware flow).
        noise: Error model supplying per-edge two-qubit error rates
            (default: a uniform :class:`~repro.sim.noise.NoiseModel`, in
            which case the router behaves like hop-count SABRE up to
            scaling).
        lookahead: Look-ahead window size.
        extended_weight: Weight of the look-ahead term.

    Returns:
        A connectivity-satisfying :class:`RoutingResult`.
    """
    model = noise or NoiseModel()
    dist = model.weighted_distance_matrix(device)

    def swap_error(pa: int, pb: int) -> float:
        error = model.edge_error.get((min(pa, pb), max(pa, pb)), model.error_2q)
        return -3.0 * math.log(max(1.0 - error, 1e-12))

    current = (placement or Placement.trivial(device.num_qubits, circuit.num_qubits)).copy()
    initial = current.copy()
    dag = DependencyGraph(circuit)
    done: set[int] = set()
    front = set(dag.front_layer())
    out = Circuit(device.num_qubits, name=circuit.name)
    added = 0
    stall = 0
    # Tighter than SABRE's guard: on a flat error landscape we prefer to
    # bail out to a plain shortest-path burst early.
    max_stall = 2 * device.num_qubits + 8

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

        # The scorer supplies the strict-progress bit via an incremental
        # front-distance delta; the score itself is still a full rescore
        # because its error-weighted float sums drive exact tie-breaks.
        scorer = _SwapScorer(blocked, extended, dag, current, dist, extended_weight)
        scored = []
        for pa, pb in candidates:
            d_front, _ = scorer.deltas(pa, pb)
            current.apply_swap(pa, pb)
            full_score = _score(
                blocked, extended, dag, current, dist, extended_weight
            )
            current.apply_swap(pa, pb)
            scored.append(
                (d_front < -1e-12, full_score + swap_error(pa, pb), pa, pb)
            )
        progressing = [entry for entry in scored if entry[0]]
        pool = progressing or scored
        _, __, pa, pb = min(pool, key=lambda e: e[1:])

        out.append(G.swap(pa, pb))
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
        "reliability",
        metadata={"lookahead": lookahead, "noise_aware": True},
    )


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
        extended = _successor_extended_set(dag.successors, two_qubit, front, lookahead)
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


def _successor_extended_set(successors, two_qubit, front, limit: int) -> list[int]:
    """Up to ``limit`` upcoming two-qubit gates past the front layer.

    Breadth first from the sorted front over ``successors(index)``;
    ``two_qubit[index]`` is truthy for the gates that count.  Every gate
    reached descends from an unemitted front gate, so none is emitted.
    """
    if limit <= 0:
        return []
    extended: list[int] = []
    seen = set(front)
    queue = deque(sorted(front))
    while queue and len(extended) < limit:
        for succ in successors(queue.popleft()):
            if succ in seen:
                continue
            seen.add(succ)
            queue.append(succ)
            if two_qubit[succ]:
                extended.append(succ)
                if len(extended) >= limit:
                    break
    return extended
