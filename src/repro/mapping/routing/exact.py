"""Exact (minimal-cost) router for small instances.

Re-implementation of the idea behind Wille, Burgholzer and Zulehner,
"Mapping quantum circuits to IBM QX architectures using the minimal
number of SWAP and H operations" (DAC 2019) — reference [57] of the
paper, the method behind Fig. 3(d).  The mapping problem is cast as a
shortest-path search over *compilation states* and solved exactly with
Dijkstra's algorithm.  A state is the pair

``(set of already-executed two-qubit gates, current placement)``

where the executed set must be downward closed in the two-qubit
dependency DAG — so the search also exploits the freedom to reorder
*independent* gates, not just where to place SWAPs.  Moves:

* a **SWAP** on any coupling edge costs ``swap_cost`` (default: the 7
  elementary gates a SWAP needs on a directed-CNOT device — 3 CNOTs plus
  4 Hadamards for the middle reversed CNOT — or 3 on symmetric devices);
* **executing** a dependency-ready two-qubit gate costs 0 when the
  coupling direction matches and ``flip_cost`` (default 4, the Hadamards
  of the direction flip of Section IV) when it must be reversed.

The result is the provably cheapest SWAP/H realisation.  Like the paper
says, exact approaches "can guarantee minimal solutions ... but [are]
often not that scalable": the state space is ``2^|G| * num_qubits!``,
so both dimensions are guarded.
"""

from __future__ import annotations

import heapq
import itertools

from ...core.circuit import Circuit
from ...core.dag import DependencyGraph
from ...core import gates as G
from ...devices.device import Device
from ...resilience.deadline import current_deadline
from ..placement import Placement
from .base import RoutingError, RoutingResult

__all__ = ["route_exact", "default_costs"]

#: Above this device size exact search is refused (m! placements).
_MAX_QUBITS = 8
#: Above this two-qubit gate count the done-set bitmask is refused.
_MAX_TWOQ = 24


def default_costs(device: Device) -> tuple[int, int]:
    """``(swap_cost, flip_cost)`` in elementary gates for ``device``.

    On devices with directed CNOTs a routing SWAP decomposes into 3 CNOTs
    of which the middle one must be reversed with 4 Hadamards (7 gates);
    flipping a circuit CNOT costs 4 Hadamards.  On symmetric devices a
    SWAP is 3 entanglers and no flips are ever needed.
    """
    if device.symmetric:
        return 3, 0
    return 7, 4


def route_exact(
    circuit: Circuit,
    device: Device,
    placement: Placement | None = None,
    *,
    swap_cost: int | None = None,
    flip_cost: int | None = None,
    optimize_placement: bool = False,
) -> RoutingResult:
    """Minimal-cost routing by Dijkstra over (executed gates, placement).

    Args:
        circuit: Input circuit on program qubits.
        device: Target device (at most ``8`` qubits).
        placement: Initial placement; with ``optimize_placement=True`` the
            search instead starts from *every* placement at cost 0,
            returning the global optimum over initial placements as well
            (as the exact approach [57] does).
        swap_cost: Cost charged per inserted SWAP (default from
            :func:`default_costs`).
        flip_cost: Cost charged per direction-reversed CNOT.
        optimize_placement: Free choice of initial placement.

    Returns:
        A :class:`RoutingResult`; ``metadata["cost"]`` carries the optimal
        objective value and ``metadata["flips"]`` the number of CNOTs the
        direction pass will need to reverse.
    """
    if device.num_qubits > _MAX_QUBITS:
        raise RoutingError(
            f"exact routing limited to {_MAX_QUBITS} qubits "
            f"(device has {device.num_qubits})"
        )
    base_swap, base_flip = default_costs(device)
    swap_cost = base_swap if swap_cost is None else swap_cost
    flip_cost = base_flip if flip_cost is None else flip_cost

    for gate in circuit.gates:
        if len(gate.qubits) > 2:
            raise RoutingError(f"decompose {gate.name} before routing")

    # Two-qubit gates and their dependency structure (via shared qubits).
    twoq_indices = [i for i, g in enumerate(circuit.gates) if g.is_two_qubit]
    if len(twoq_indices) > _MAX_TWOQ:
        raise RoutingError(
            f"exact routing limited to {_MAX_TWOQ} two-qubit gates "
            f"(circuit has {len(twoq_indices)})"
        )
    twoq = [circuit.gates[i] for i in twoq_indices]
    preds_mask = _dependency_masks(twoq)
    full_mask = (1 << len(twoq)) - 1

    start = (placement or Placement.trivial(device.num_qubits, circuit.num_qubits)).copy()
    edges = device.undirected_edges()

    counter = itertools.count()
    heap: list = []
    best: dict[tuple[int, tuple[int, ...]], float] = {}
    parents: dict = {}

    def push(state, cost, parent, move):
        if cost < best.get(state, float("inf")):
            best[state] = cost
            parents[state] = (parent, move)
            heapq.heappush(heap, (cost, next(counter), state))

    if optimize_placement:
        for perm in itertools.permutations(range(device.num_qubits)):
            push((0, perm), 0.0, None, None)
    else:
        push((0, start.key()), 0.0, None, None)

    deadline = current_deadline()
    pops = 0
    final_state = None
    while heap:
        cost, _, state = heapq.heappop(heap)
        # Cooperative deadline poll: one clock read per 256 pops.
        pops += 1
        if deadline is not None and not pops & 0xFF:
            deadline.check("exact routing")
        if cost > best.get(state, float("inf")):
            continue
        mask, key = state
        if mask == full_mask:
            final_state = state
            break
        pl = Placement(list(key), start.num_program)
        # Execute any dependency-ready, connected gate.
        for k, gate in enumerate(twoq):
            bit = 1 << k
            if mask & bit or (preds_mask[k] & mask) != preds_mask[k]:
                continue
            pa, pb = pl.phys(gate.qubits[0]), pl.phys(gate.qubits[1])
            if not device.connected(pa, pb):
                continue
            needs_flip = (
                not device.symmetric
                and not gate.is_symmetric
                and not device.has_edge(pa, pb)
            )
            push(
                (mask | bit, key),
                cost + (flip_cost if needs_flip else 0),
                state,
                ("exec", k, needs_flip),
            )
        # Or apply any SWAP.
        for ea, eb in edges:
            pl.apply_swap(ea, eb)
            push((mask, pl.key()), cost + swap_cost, state, ("swap", (ea, eb)))
            pl.apply_swap(ea, eb)

    if final_state is None:
        raise RoutingError("exact search found no solution (device disconnected?)")

    moves = _backtrack(parents, final_state)
    start_key = _start_key(parents, final_state)
    initial = Placement(list(start_key), start.num_program)
    out, replay, added, flips = _rebuild(circuit, twoq_indices, moves, initial, device)

    return RoutingResult(
        out,
        initial,
        replay,
        added,
        "exact",
        metadata={
            "cost": best[final_state],
            "flips": flips,
            "swap_cost": swap_cost,
            "flip_cost": flip_cost,
            "optimized_placement": optimize_placement,
        },
    )


def _dependency_masks(twoq) -> list[int]:
    """Direct-predecessor bitmasks over the two-qubit subsequence."""
    masks = [0] * len(twoq)
    last_on_qubit: dict[int, int] = {}
    for k, gate in enumerate(twoq):
        for q in gate.qubits:
            if q in last_on_qubit:
                masks[k] |= 1 << last_on_qubit[q]
            last_on_qubit[q] = k
    # Close transitively so a single mask check suffices.
    for k in range(len(twoq)):
        frontier = masks[k]
        closed = 0
        while frontier:
            bit = frontier & -frontier
            frontier &= frontier - 1
            j = bit.bit_length() - 1
            if not closed & bit:
                closed |= bit
                frontier |= masks[j] & ~closed
        masks[k] = closed
    return masks


def _backtrack(parents, state) -> list:
    moves = []
    while parents[state][1] is not None:
        parent, move = parents[state]
        moves.append(move)
        state = parent
    moves.reverse()
    return moves


def _start_key(parents, state) -> tuple[int, ...]:
    while parents[state][1] is not None:
        state = parents[state][0]
    return state[1]


def _rebuild(circuit, twoq_indices, moves, initial, device):
    """Interleave the solved move sequence with the original 1q gates."""
    dag = DependencyGraph(circuit)
    emitted: set[int] = set()
    out = Circuit(device.num_qubits, name=circuit.name)
    replay = initial.copy()
    added = 0
    flips = 0
    twoq_set = set(twoq_indices)

    def flush_ready_non2q() -> None:
        progressed = True
        while progressed:
            progressed = False
            for index in range(len(circuit.gates)):
                if index in emitted or index in twoq_set:
                    continue
                if all(p in emitted for p in dag.predecessors(index)):
                    gate = circuit.gates[index]
                    out.append(
                        gate.remap({q: replay.phys(q) for q in gate.qubits})
                    )
                    emitted.add(index)
                    progressed = True

    for move in moves:
        if move[0] == "swap":
            pa, pb = move[1]
            out.append(G.swap(pa, pb))
            replay.apply_swap(pa, pb)
            added += 1
        else:
            _, k, needs_flip = move
            flush_ready_non2q()
            index = twoq_indices[k]
            gate = circuit.gates[index]
            out.append(gate.remap({q: replay.phys(q) for q in gate.qubits}))
            emitted.add(index)
            flips += int(needs_flip)
    flush_ready_non2q()
    if len(emitted) != len(circuit.gates):
        raise RoutingError("exact rebuild lost gates (internal error)")
    return out, replay, added, flips
