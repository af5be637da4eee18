"""Packed-integer A* layer-search kernel (implementation detail of astar).

Split out of :mod:`repro.mapping.routing.astar` so the router module keeps
the paper-facing narrative while this file holds the representation
tricks.  See ``docs/performance.md`` for the design.

Two ideas carry the speedup:

*   **Packed states.**  The search state is packed into one Python
    integer: slot ``i`` occupies bits ``[i*B, (i+1)*B)`` and stores the
    physical qubit hosting *active* program qubit ``i`` (``B`` bits,
    enough for ``num_qubits``).  Applying a SWAP of physical qubits
    ``(pa, pb)`` then becomes XORs with ``pa ^ pb`` shifted to the
    affected slots — no list copy, no tuple allocation, and hashing the
    state for the visited set is a single integer hash.  Candidate edges
    are enumerated through per-qubit bitmasks over the sorted edge list,
    which reproduces the seed's sorted-pair iteration order exactly.

*   **Spectator elision.**  Only the *active* program qubits — operands
    of a layer gate or of a look-ahead gate — influence the cost terms
    or the candidate-edge set.  Program qubits outside that set are
    spectators: two placements that agree on every active qubit have
    identical subtree costs, so the kernel keys its visited set on the
    active positions only.  The seed search re-explores each spectator
    arrangement as a fresh state; collapsing them shrinks the explored
    space by orders of magnitude on congested layers while searching the
    same quotient graph with the same cost function, edge order and
    tie-breaking discipline.

Heap entries carry the node's ``pending`` (sum of layer-gate distances
minus one) and ``lookahead`` values so they are never recomputed at pop
time; pushes update both incrementally over only the gates touching the
moved program qubits.  All distance terms are small integers and the
default look-ahead weights are dyadic (0.5 ** k), so every arithmetic
step is exact.
"""

from __future__ import annotations

import heapq
import itertools

from ...obs import add_counter
from ...resilience.deadline import current_deadline
from .base import RoutingError
from ._astar_native import note_python_layer

__all__ = ["solve_layer_packed"]


def solve_layer_packed(
    pair_list,
    future_list,
    start_p2h,
    device,
    max_expansions: int,
) -> list[tuple[int, int]]:
    """A* search for a SWAP sequence making all ``pair_list`` adjacent.

    The pure-Python reference of the native kernel: it runs when the
    kernel is unavailable or declines a circuit, and tests compare the
    two for byte-identity.

    Args:
        pair_list: ``(prog_a, prog_b)`` operand pairs of the layer gates.
        future_list: ``((prog_a, prog_b), weight)`` look-ahead entries.
        start_p2h: Program->physical array of the starting placement.
        device: Target device (supplies edge structure and hop counts).
        max_expansions: Abort guard on A* node expansions.

    Returns:
        The SWAP sequence (physical qubit pairs), ``[]`` when the layer
        is already satisfied.
    """
    n = device.num_qubits
    nbits = max(1, (n - 1).bit_length())
    mask = (1 << nbits) - 1
    dflat = device.distance_flat

    edges = device.undirected_edge_list
    edge_xor = [pa ^ pb for pa, pb in edges]
    # Bitmask of incident edge ids per physical qubit (edge ids follow the
    # sorted-pair order, so ascending-bit iteration == sorted iteration).
    qedge_mask = [0] * n
    for eid, (pa, pb) in enumerate(edges):
        qedge_mask[pa] |= 1 << eid
        qedge_mask[pb] |= 1 << eid

    # Active program qubits: operands of a layer pair or a look-ahead
    # gate.  Only their positions matter — for the cost terms and for the
    # candidate-edge masks — so the state key stores one slot per active
    # qubit and spectator arrangements collapse into one node.
    active = sorted(
        {q for pr in pair_list for q in pr}
        | {q for pr, _w in future_list for q in pr}
    )
    m = len(active)
    slot_of = {q: i for i, q in enumerate(active)}

    # Per-gate slot shifts, plus per-slot affected-gate lists for deltas.
    pair_shifts = [(slot_of[a] * nbits, slot_of[b] * nbits) for a, b in pair_list]
    future_shifts = [
        (slot_of[a] * nbits, slot_of[b] * nbits) for (a, b), _w in future_list
    ]
    future_weights = [w for _pair, w in future_list]
    n_pairs = len(pair_list)
    touch_future: dict[int, list[int]] = {}
    pair_slots = [(slot_of[a], slot_of[b]) for a, b in pair_list]
    future_slots = []
    for i, ((a, b), _w) in enumerate(future_list):
        sa, sb = slot_of[a], slot_of[b]
        touch_future.setdefault(sa, []).append(i)
        touch_future.setdefault(sb, []).append(i)
        future_slots.append((sa, sb))
    no_touch: list[int] = []

    # Slots whose position influences the look-ahead term: a satisfied
    # layer gate parked on one of these still warrants SWAP candidates,
    # matching the seed search's freedom to reposition satisfied gates
    # for the benefit of upcoming layers.
    future_active = frozenset(
        slot_of[q] for pr, _w in future_list for q in pr
    )

    key0 = 0
    for i, q in enumerate(active):
        key0 |= start_p2h[q] << (i * nbits)

    deadline = current_deadline()

    def pending_of(key: int) -> int:
        total = 0
        for sa, sb in pair_shifts:
            total += dflat[((key >> sa) & mask) * n + ((key >> sb) & mask)] - 1
        return total

    def lookahead_of(key: int) -> float:
        total = 0.0
        for (sa, sb), w in zip(future_shifts, future_weights):
            total += w * (
                dflat[((key >> sa) & mask) * n + ((key >> sb) & mask)] - 1
            )
        return total

    pending0 = pending_of(key0)
    if pending0 == 0:
        add_counter("astar.python_layers", 1)
        note_python_layer()
        return []

    counter = itertools.count()
    open_heap: list = []
    g_best: dict[int, int] = {key0: 0}
    parents: dict[int, tuple[int, tuple[int, int]] | None] = {key0: None}
    heapq.heappush(
        open_heap,
        (pending0 / 2.0 + lookahead_of(key0), next(counter), key0, 0, pending0,
         lookahead_of(key0)),
    )
    expansions = 0
    inf = float("inf")
    heappush = heapq.heappush
    heappop = heapq.heappop
    g_get = g_best.get
    tf_get = touch_future.get

    # Physical position -> active slot scratch array (reset per expansion
    # by undoing the writes, which touches only ``m`` cells).
    occ = [-1] * n

    pruned = 0
    while open_heap:
        _, __, key, g, pending, lookahead = heappop(open_heap)
        if g > g_get(key, inf):
            pruned += 1
            continue
        if pending == 0:
            sequence: list[tuple[int, int]] = []
            entry = parents[key]
            while entry is not None:
                key, swap = entry
                sequence.append(swap)
                entry = parents[key]
            sequence.reverse()
            add_counter("astar.python_layers", 1)
            note_python_layer()
            add_counter("astar.nodes_expanded", expansions)
            add_counter("astar.nodes_pruned", pruned)
            add_counter("astar.swaps_emitted", len(sequence))
            return sequence
        expansions += 1
        if deadline is not None and not expansions & 0xFF:
            deadline.check("astar layer search")
        if expansions > max_expansions:
            raise RoutingError(
                f"A* expanded more than {max_expansions} placements on one "
                "layer; instance too large for layer-exact search"
            )
        # Positions of the active slots (slot decode).
        shifted = key
        for i in range(m):
            occ[shifted & mask] = i
            shifted >>= nbits
        # Candidate SWAPs: edges touching an operand of an unsatisfied
        # layer gate (those can reduce the heuristic), plus edges touching
        # a satisfied gate's operand that also appears in a look-ahead
        # gate (those can reduce the look-ahead bias).  Restricting to
        # them keeps the search complete: active qubits can always walk
        # toward each other, displacing whatever sits in between.
        emask = 0
        for i, (sa, sb) in enumerate(pair_shifts):
            oa = (key >> sa) & mask
            ob = (key >> sb) & mask
            if dflat[oa * n + ob] > 1:
                emask |= qedge_mask[oa] | qedge_mask[ob]
            else:
                a, b = pair_slots[i]
                if a in future_active:
                    emask |= qedge_mask[oa]
                if b in future_active:
                    emask |= qedge_mask[ob]
        ng = g + 1
        while emask:
            low = emask & -emask
            emask ^= low
            eid = low.bit_length() - 1
            pa, pb = edges[eid]
            x = occ[pa]
            y = occ[pb]
            xor = edge_xor[eid]
            nkey = key
            if x >= 0:
                nkey ^= xor << (x * nbits)
            if y >= 0:
                nkey ^= xor << (y * nbits)
            if ng < g_get(nkey, inf):
                g_best[nkey] = ng
                parents[nkey] = (key, (pa, pb))
                # Layer pairs are few: recompute their distance sum over
                # the new key (exact integer arithmetic).
                nsum = 0
                for sa, sb in pair_shifts:
                    nsum += dflat[((nkey >> sa) & mask) * n
                                  + ((nkey >> sb) & mask)]
                npending = nsum - n_pairs
                d_lookahead = 0.0
                for i in tf_get(x, no_touch):
                    sa, sb = future_shifts[i]
                    d_lookahead += future_weights[i] * (
                        dflat[((nkey >> sa) & mask) * n + ((nkey >> sb) & mask)]
                        - dflat[((key >> sa) & mask) * n + ((key >> sb) & mask)]
                    )
                if y >= 0:
                    for i in tf_get(y, no_touch):
                        if x in future_slots[i]:
                            continue
                        sa, sb = future_shifts[i]
                        d_lookahead += future_weights[i] * (
                            dflat[((nkey >> sa) & mask) * n
                                  + ((nkey >> sb) & mask)]
                            - dflat[((key >> sa) & mask) * n
                                    + ((key >> sb) & mask)]
                        )
                nlookahead = lookahead + d_lookahead
                heappush(
                    open_heap,
                    (ng + npending / 2.0 + nlookahead, next(counter), nkey, ng,
                     npending, nlookahead),
                )
        # Undo the occupancy writes for the next expansion.
        shifted = key
        for _ in range(m):
            occ[shifted & mask] = -1
            shifted >>= nbits

    raise RoutingError("A* search exhausted without satisfying the layer")
