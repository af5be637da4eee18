"""The SABRE-family routing loop: one front-layer search, pluggable SWAP scores.

SABRE's look-ahead search (the paper's ref. [40]), Qmap's latency-aware
"looking-back" cost (Section V) and reliability-aware routing over the
chip's best edges ([45]-[47]) are one search that differs only in how a
SWAP is scored (Cowtan et al., arXiv 1902.08091, describe routing the
same way): emit every executable gate of the *front layer*, and when
none is, apply the best-scoring SWAP on an edge touching a blocked gate.
:func:`route_family` runs that loop; each router is a :class:`Policy`.

The loop keeps its per-decision state incrementally.  The placement
does not change while gates are emitted, so after an emission pass only
the gates it made ready are checked; after a SWAP the whole front is.
The look-ahead set depends only on the emitted gates, so it is reused
until the next emission.  Candidates are scored from flat per-decision
terms (:class:`_Terms`): a SWAP of ``(pa, pb)`` changes only the terms
of the pairs on ``pa`` or ``pb``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import reduce
from operator import add

from ...core.circuit import Circuit
from ...core.dag import DependencyGraph
from ...core import gates as G
from ...devices.device import Device
from ...obs import add_counter
from ...resilience.deadline import current_deadline
from ..placement import Placement
from .base import RoutingError, RoutingResult, device_path

__all__ = ["Policy", "route_family"]


class Policy:
    """How one router of the family picks a SWAP.

    ``router`` names its counters and deadline poll; after ``max_stall``
    SWAPs without an emitted gate the loop forces a shortest-path route.
    """

    router: str
    max_stall: int

    def choose(self, candidates: list[tuple[int, int]], terms: "_Terms") -> tuple[int, int]:
        """The SWAP to apply among ``candidates`` (sorted coupling edges);
        the loop always applies it."""
        raise NotImplementedError

    def emitted(self, gate) -> None:
        """A circuit gate was emitted, on physical qubits."""

    def decided(self, pa: int, pb: int) -> None:
        """A decision ended with the SWAP ``(pa, pb)``, or, when the stall
        valve fired, with a forced route of the gate then on ``(pa, pb)``."""


def route_family(
    circuit: Circuit,
    device: Device,
    placement: Placement | None,
    policy: Policy,
    *,
    dist,
    lookahead: int,
    extended_weight: float,
    commutation: bool = False,
) -> RoutingResult:
    """Route ``circuit`` with ``policy`` choosing every SWAP.

    ``dist`` is the distance matrix of the score terms, ``lookahead`` the
    size of the look-ahead set and ``extended_weight`` its weight; the
    other arguments are those of the routers.  The result has no metadata.
    """
    initial = (placement or Placement.trivial(device.num_qubits, circuit.num_qubits)).copy()
    p2h = initial.prog_to_phys()
    dag = DependencyGraph(circuit, commutation=commutation)
    gates = circuit.gates
    # Program-qubit pair of each gate that needs a coupled pair: the
    # two-qubit unitaries, which are also the look-ahead gates.
    pairs = [g.qubits if len(g.qubits) == 2 and g.is_unitary else None for g in gates]
    waiting = [len(dag.predecessors(i)) for i in range(len(gates))]
    successors = dag.successors
    linked = device.edges
    incident = device.incident_edges
    out = Circuit(device.num_qubits, name=circuit.name)

    def swap(pa: int, pb: int) -> None:
        out.append(G.swap(pa, pb))
        a, b = p2h.index(pa), p2h.index(pb)
        p2h[a], p2h[b] = pb, pa

    front = set(dag.front_layer())
    pending = sorted(front)
    look = None
    stall = decisions = scored = forced = 0
    deadline = current_deadline()
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
                gate = gates[index]
                placed = gate.remap({q: p2h[q] for q in gate.qubits})
                out.append(placed)
                policy.emitted(placed)
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
            candidates, _Terms(look, front_n, p2h, dist, extended_weight)
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
                swap(path[step], path[step + 1])
            stall = 0
            forced += 1
        decisions += 1
        policy.decided(pa, pb)
        pending = blocked

    add_counter(f"{policy.router}.swap_candidates_scored", scored)
    add_counter(f"{policy.router}.swap_decisions", decisions)
    if forced:
        add_counter(f"{policy.router}.forced_routes", forced)
    # Every gate of the circuit was emitted once; the rest are SWAPs.
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
    is first)``.
    """

    __slots__ = ("terms", "front_n", "ext_n", "front_base", "ext_base",
                 "weight", "by_phys", "dist")

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
        front then look-ahead, as :func:`_score` does on the swapped
        placement; base plus delta can round differently.
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


def _score(
    blocked,
    extended: list[int],
    dag: DependencyGraph,
    placement: Placement,
    dist,
    extended_weight: float,
) -> float:
    """Mean front distance plus weighted mean look-ahead distance."""
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
