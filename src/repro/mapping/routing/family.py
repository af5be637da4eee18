"""The SABRE-family routing loop: one front-layer search, pluggable move scores.

SABRE's look-ahead search (the paper's ref. [40]), Qmap's latency-aware
"looking-back" cost (Section V), reliability-aware routing over the
chip's best edges ([45]-[47]) and shuttling on quantum-dot arrays
(Section VI-C) are one search that differs only in how a move is scored
(Cowtan et al., arXiv 1902.08091, describe routing the same way): emit
every executable gate of the *front layer*, and when none is, apply the
best-scoring move on an edge touching a blocked gate.
:func:`route_family` runs that loop; each router is a :class:`Policy`.

The loop keeps its per-decision state incrementally.  The placement
does not change while gates are emitted, so after an emission pass only
the gates it made ready are checked; after a SWAP the whole front is.
The look-ahead set depends only on the emitted gates, so it is reused
until the next emission.  Candidates are scored from flat per-decision
terms (:class:`_Terms`): a SWAP of ``(pa, pb)`` changes only the terms
of the pairs on ``pa`` or ``pb``.

The loop runs in the native kernel when it is available
(:func:`~repro.mapping.routing._astar_native.route_family_native`, one
crossing per circuit, for sabre, latency and reliability); the Python
loop below is its byte-identical mirror, and runs when the kernel is
disabled or declines the circuit (shuttle always).  Both produce the
emission order, gate indices and moves, and :func:`_routed` builds the
routed circuit from it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import reduce
from operator import add

from ...core.circuit import Circuit
from ...core.dag import DependencyGraph
from ...core import gates as G
from ...core.gates import Gate
from ...devices.device import Device
from ...obs import add_counter
from ...resilience.deadline import current_deadline
from ..placement import Placement
from ._astar_native import Distances, note_family_python_call, route_family_native
from .base import RoutingError, RoutingResult, device_path

__all__ = ["Policy", "route_family"]


class Policy:
    """How one router of the family picks a move.

    ``router`` names its counters and deadline poll; after ``max_stall``
    moves without an emitted gate the loop forces a shortest-path route
    of SWAPs.
    """

    router: str
    max_stall: int

    def kernel_options(self) -> dict | None:
        """The policy's keyword arguments of
        :func:`~repro.mapping.routing._astar_native.route_family_native`,
        or ``None`` when the kernel cannot mirror the policy (the
        default: only sabre, latency and reliability have a mirror)."""
        return None

    def choose(self, candidates: list[tuple[int, int]], terms: "_Terms") -> tuple[int, int]:
        """The move to apply among ``candidates`` (sorted coupling edges);
        the loop always applies it.  ``terms.p2h`` is the decision's
        placement."""
        raise NotImplementedError

    def gate(self, pa: int, pb: int, h2p) -> str:
        """Name of the gate of the chosen move ``(pa, pb)``; ``h2p[p]`` is
        the program index (dummies included) on physical ``p`` before it.
        The SWAPs of a forced route are always ``swap``."""
        return "swap"

    def emitted(self, gate, p2h) -> None:
        """A circuit gate was emitted; ``p2h[q]`` is the physical qubit
        of its operand ``q``."""

    def decided(self, pa: int, pb: int) -> None:
        """A decision ended with the move ``(pa, pb)``, or, when the stall
        valve fired, with a forced route of the gate then on ``(pa, pb)``."""


def route_family(
    circuit: Circuit,
    device: Device,
    placement: Placement | None,
    policy: Policy,
    *,
    dist: Distances,
    lookahead: int,
    extended_weight: float,
    commutation: bool = False,
) -> RoutingResult:
    """Route ``circuit`` with ``policy`` choosing every move.

    ``dist`` holds the distance matrix of the score terms, ``lookahead``
    is the size of the look-ahead set and ``extended_weight`` its weight;
    the other arguments are those of the routers.  The result has no
    metadata.
    """
    initial = (placement or Placement.trivial(device.num_qubits, circuit.num_qubits)).copy()
    dag = DependencyGraph(circuit, commutation=commutation)
    gates = circuit.gates
    # Program-qubit pair of each gate that needs a coupled pair: the
    # two-qubit unitaries, which are also the look-ahead gates.
    pairs = [g.qubits if len(g.qubits) == 2 and g.is_unitary else None for g in gates]
    waiting = [len(dag.predecessors(i)) for i in range(len(gates))]
    successors = dag.successors
    deadline = current_deadline()
    options = policy.kernel_options()
    run = None
    if options is not None:
        run = route_family_native(
            device, gates, pairs, successors, waiting, initial.prog_to_phys(), dist,
            router=policy.router, lookahead=lookahead,
            extended_weight=extended_weight, max_stall=policy.max_stall,
            deadline=deadline, **options,
        )
    if run is not None:
        events, scored, decisions = run
        _report(policy.router, scored, decisions, 0)
        return _routed(circuit, device, initial, events, policy)

    # The Python loop: the kernel's reference, operation for operation.
    note_family_python_call()
    events = []
    n = device.num_qubits
    p2h = initial.prog_to_phys()
    linked = device.edges
    incident = device.incident_edges
    matrix = dist.matrix

    def swap(pa: int, pb: int, forced: bool = False) -> None:
        events.append(-1 - (pa * n + pb) - (n * n if forced else 0))
        a, b = p2h.index(pa), p2h.index(pb)
        p2h[a], p2h[b] = pb, pa

    front = set(dag.front_layer())
    pending = sorted(front)
    look = None
    stall = decisions = scored = forced = 0
    while front:
        # Cooperative deadline poll: one clock read per decision.
        if deadline is not None:
            deadline.check(f"{policy.router} routing")
        # Progress passes, in the order of repeated ``sorted(front)``
        # sweeps: a gate that was not executable stays so until the next
        # SWAP, so each pass checks only what the last one made ready.
        while pending:
            ready = []
            for index in pending:
                pair = pairs[index]
                if pair is None:
                    if len(gates[index].qubits) > 2:
                        raise RoutingError(f"decompose {gates[index].name} before routing")
                else:
                    pa, pb = p2h[pair[0]], p2h[pair[1]]
                    if (pa, pb) not in linked and (pb, pa) not in linked:
                        continue
                events.append(index)
                policy.emitted(gates[index], p2h)
                front.discard(index)
                for succ in successors(index):
                    waiting[succ] -= 1
                    if not waiting[succ]:
                        front.add(succ)
                        ready.append(succ)
                stall = 0
                look = None
            ready.sort()
            pending = ready
        if not front:
            break

        if look is None:
            # The look-ahead set depends only on the emitted gates.
            blocked = sorted(front)
            look = [pairs[i] for i in blocked]
            look += [pairs[i] for i in _extended_set(successors, pairs, blocked, lookahead)]
        front_n = len(blocked)
        edges: set[tuple[int, int]] = set()
        for a, b in look[:front_n]:
            edges.update(incident[p2h[a]])
            edges.update(incident[p2h[b]])
        if not edges:
            raise RoutingError("no candidate swaps; is the device connected?")
        candidates = sorted(edges)
        scored += len(candidates)
        pa, pb = policy.choose(
            candidates, _Terms(look, front_n, p2h, matrix, extended_weight)
        )
        swap(pa, pb)
        stall += 1
        if stall > policy.max_stall:
            # Safety valve: the heuristic is cycling; route the first
            # blocked gate along a shortest path, which always progresses.
            a, b = pairs[blocked[0]]
            pa, pb = p2h[a], p2h[b]
            path = device_path(device, pa, pb)
            for step in range(len(path) - 2):
                swap(path[step], path[step + 1], True)
            stall = 0
            forced += 1
        decisions += 1
        policy.decided(pa, pb)
        pending = blocked

    _report(policy.router, scored, decisions, forced)
    return _routed(circuit, device, initial, events, policy)


def _report(router: str, scored: int, decisions: int, forced: int) -> None:
    add_counter(f"{router}.swap_candidates_scored", scored)
    add_counter(f"{router}.swap_decisions", decisions)
    if forced:
        add_counter(f"{router}.forced_routes", forced)


def _routed(
    circuit: Circuit, device: Device, initial: Placement, events, policy: Policy
) -> RoutingResult:
    """The routed circuit of an emission order.

    ``events`` lists gate indices of ``circuit`` and moves on physical
    ``(pa, pb)``: a chosen move as ``-1 - (pa * n + pb)``, its gate named
    by ``policy.gate``, and a SWAP of a forced route as that minus
    ``n * n``.  The program-to-physical and physical-to-program arrays
    follow the moves in step.
    """
    n = device.num_qubits
    gates = circuit.gates
    p2h = initial.prog_to_phys()
    h2p = [0] * len(p2h)
    for prog, phys in enumerate(p2h):
        h2p[phys] = prog
    out = Circuit(n, name=circuit.name)
    append = out.append
    move_gate = policy.gate
    for event in events:
        if event >= 0:
            gate = gates[event]
            append(gate.remap({q: p2h[q] for q in gate.qubits}))
        else:
            pa, pb = divmod(-1 - event, n)
            if pa < n:
                append(Gate(move_gate(pa, pb, h2p), (pa, pb)))
            else:
                pa -= n
                append(G.swap(pa, pb))
            a, b = h2p[pa], h2p[pb]
            p2h[a], p2h[b] = pb, pa
            h2p[pa], h2p[pb] = b, a
    # Every gate of the circuit was emitted once; the rest are moves.
    added = len(out.gates) - len(gates)
    return RoutingResult(
        out, initial, Placement(p2h, initial.num_program), added, policy.router
    )


class _Terms:
    """The distance terms of one decision under the current placement.

    Entry ``i`` is a program-qubit pair of the blocked front (the first
    ``front_n``) or of the look-ahead set (the rest), and ``terms[i]`` its
    distance.  A SWAP of physical ``(pa, pb)`` changes only the entries
    with an operand on ``pa`` or ``pb``; ``by_phys`` lists them per
    physical qubit, in entry order, as ``(entry, other operand, operand
    is first)``.  ``p2h`` is the placement they were read from.
    """

    __slots__ = ("terms", "front_n", "ext_n", "front_base", "ext_base",
                 "weight", "by_phys", "dist", "p2h")

    def __init__(self, pairs, front_n: int, p2h, dist, weight: float) -> None:
        terms = []
        by_phys = defaultdict(list)
        for i, (a, b) in enumerate(pairs):
            qa, qb = p2h[a], p2h[b]
            terms.append(dist[qa][qb])
            by_phys[qa].append((i, qb, True))
            by_phys[qb].append((i, qa, False))
        self.terms = terms
        self.front_n = front_n
        self.ext_n = len(terms) - front_n
        # Left to right from 0: with float distances the order is part
        # of the output.
        self.front_base = reduce(add, terms[:front_n], 0)
        self.ext_base = reduce(add, terms[front_n:], 0)
        self.weight = weight
        self.by_phys = by_phys
        self.dist = dist
        self.p2h = p2h

    def deltas(self, pa: int, pb: int, swapped=None):
        """Change of the (front, look-ahead) sums under the SWAP.

        The changes add up over ``pa``'s entries, then ``pb``'s not
        already counted.  ``swapped``, when given, receives the changed
        terms at their entries.
        """
        dist = self.dist
        terms = self.terms
        front_n = self.front_n
        d_front = 0
        d_ext = 0
        for here, there in ((pa, pb), (pb, pa)):
            for i, other, first in self.by_phys.get(here, ()):
                if other == there:
                    if here == pb:
                        continue
                    other = pa
                new = dist[there][other] if first else dist[other][there]
                if swapped is not None:
                    swapped[i] = new
                if i < front_n:
                    d_front += new - terms[i]
                else:
                    d_ext += new - terms[i]
        return d_front, d_ext

    def score(self, pa: int, pb: int) -> float:
        """Mean front distance plus weighted mean look-ahead distance
        after the SWAP, from the base sums and the deltas."""
        d_front, d_ext = self.deltas(pa, pb)
        score = (self.front_base + d_front) / self.front_n
        if self.ext_n:
            score += self.weight * (self.ext_base + d_ext) / self.ext_n
        return score

    def resum(self, pa: int, pb: int) -> tuple[float, float]:
        """``(front delta, score)`` with the score re-summed in full.

        Each sum runs left to right from ``0.0`` over the swapped terms,
        front then look-ahead, as a full re-score of the swapped placement
        does; base plus delta can round differently.
        """
        swapped = self.terms[:]
        d_front = self.deltas(pa, pb, swapped)[0]
        front_n = self.front_n
        score = reduce(add, swapped[:front_n], 0.0) / front_n
        if self.ext_n:
            score += self.weight * reduce(add, swapped[front_n:], 0.0) / self.ext_n
        return d_front, score


def _extended_set(successors, two_qubit, front, limit: int) -> list[int]:
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
