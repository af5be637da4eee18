"""Layer-based A* router with look-ahead.

Re-implementation of the methodology of Zulehner, Paler and Wille, "An
efficient methodology for mapping quantum circuits to the IBM QX
architectures" (TCAD 2018) — reference [54] of the paper, the heuristic
used for the paper's Fig. 3(c).  The circuit's two-qubit gates are
partitioned into dependency layers; for each layer an A* search over
placements finds a cheap SWAP sequence making *every* gate of the layer
executable simultaneously, with an optional look-ahead term that biases
the search toward placements that also suit the following layer.

The admissible heuristic is the sum over layer gates of
``distance(a, b) - 1`` divided by the largest per-SWAP improvement
(a single SWAP can reduce the distance of at most two layer gates by one
each), which keeps the search optimal per layer while pruning strongly.
"""

from __future__ import annotations

from ...core.circuit import Circuit
from ...core.dag import DependencyGraph
from ...core import gates as G
from ...devices.device import Device
from ...obs import add_counter
from ...resilience.deadline import current_deadline
from ..placement import Placement
from .base import RoutingError, RoutingResult
from ._astar_impl import solve_layer_packed
from ._astar_native import solve_layers_batch_native

__all__ = ["route_astar"]

#: Hard cap on A* node expansions per layer before falling back to a
#: greedy best-first continuation (keeps worst cases bounded).
_MAX_EXPANSIONS = 200_000


def route_astar(
    circuit: Circuit,
    device: Device,
    placement: Placement | None = None,
    *,
    lookahead_layers: int = 1,
    lookahead_weight: float = 0.5,
) -> RoutingResult:
    """Route ``circuit`` layer by layer with A* SWAP search.

    Args:
        circuit: Input circuit on program qubits.
        device: Target device.
        placement: Initial placement (default trivial).
        lookahead_layers: How many upcoming layers contribute to the
            look-ahead cost (0 disables look-ahead).
        lookahead_weight: Weight of each look-ahead layer's distance sum.

    Returns:
        A connectivity-satisfying :class:`RoutingResult`.
    """
    current = (placement or Placement.trivial(device.num_qubits, circuit.num_qubits)).copy()
    initial = current.copy()
    dag = DependencyGraph(circuit)
    layers = dag.two_qubit_layers()

    for gate in circuit.gates:
        if len(gate.qubits) > 2:
            raise RoutingError(f"decompose {gate.name} before routing")

    # Per-layer gate operands and look-ahead sets, precomputed so the
    # whole circuit can be handed to the batch kernel in one crossing.
    all_pairs: list[list[tuple[int, int]]] = []
    all_future: list[list[tuple[tuple[int, int], float]]] = []
    for layer_pos, layer in enumerate(layers):
        all_pairs.append([dag.gate(i).qubits for i in layer])
        future: list[tuple[tuple[int, int], float]] = []
        for ahead in range(1, lookahead_layers + 1):
            if layer_pos + ahead < len(layers):
                weight = lookahead_weight**ahead
                future.extend(
                    (dag.gate(i).qubits, weight) for i in layers[layer_pos + ahead]
                )
        all_future.append(future)

    # Solve each layer's SWAP sequence against the evolving placement.
    # The native kernel routes every layer in a single FFI crossing (the
    # per-layer preprocessing and the placement evolution run natively)
    # and polls the deadline itself; when it is unavailable, the Python
    # kernel solves layer by layer, with byte-identical sequences.
    deadline = current_deadline()
    batched = None
    if layers:
        batched = solve_layers_batch_native(
            device,
            all_pairs,
            all_future,
            current.key(),
            _MAX_EXPANSIONS,
            deadline,
        )
    if batched is not None:
        layer_swaps = [list(seq) for seq in batched]
        add_counter("astar.native_layers", len(layers))
        add_counter("astar.batched_circuits", 1)
        add_counter(
            "astar.swaps_emitted", sum(len(seq) for seq in layer_swaps)
        )
    else:
        layer_swaps = []
        for layer_pos, layer in enumerate(layers):
            if deadline is not None:
                deadline.check("astar routing")
            swap_seq = _solve_layer(
                all_pairs[layer_pos], all_future[layer_pos], current, device
            )
            for pa, pb in swap_seq:
                current.apply_swap(pa, pb)
            layer_swaps.append(swap_seq)

    # Rebuild the circuit in a topological order in which two-qubit gates
    # are grouped by layer (the original gate order may interleave
    # independent gates of different layers).  Non-2q gates are emitted
    # eagerly as soon as their dependencies allow, so they keep their
    # earliest legal position.
    layer_of: dict[int, int] = {}
    for pos, layer in enumerate(layers):
        for index in layer:
            layer_of[index] = pos
    order = _layered_topological_order(dag, layer_of)

    replay = initial.copy()
    out = Circuit(device.num_qubits, name=circuit.name)
    added = 0
    flushed = -1
    for index in order:
        gate = dag.gate(index)
        pos = layer_of.get(index)
        if pos is not None:
            while flushed < pos:
                flushed += 1
                for pa, pb in layer_swaps[flushed]:
                    out.append(G.swap(pa, pb))
                    replay.apply_swap(pa, pb)
                    added += 1
        out.append(gate.remap({q: replay.phys(q) for q in gate.qubits}))

    return RoutingResult(
        out,
        initial,
        replay,
        added,
        "astar",
        metadata={
            "lookahead_layers": lookahead_layers,
            "lookahead_weight": lookahead_weight,
            "layers": len(layers),
        },
    )


def _layered_topological_order(
    dag: DependencyGraph, layer_of: dict[int, int]
) -> list[int]:
    """Topological order grouping two-qubit gates by ascending layer.

    Non-2q gates (no entry in ``layer_of``) are released as soon as their
    predecessors are emitted.  Because a layer-``L`` two-qubit gate only
    has two-qubit ancestors of layers below ``L``, picking the smallest
    ``(layer, index)`` among ready gates keeps whole layers contiguous.
    """
    import heapq as _heapq

    pending = {i: len(dag.predecessors(i)) for i in range(len(dag))}
    ready: list = []
    for index, count in pending.items():
        if count == 0:
            _heapq.heappush(ready, (layer_of.get(index, -1), index))
    order: list[int] = []
    while ready:
        _, index = _heapq.heappop(ready)
        order.append(index)
        for succ in dag.successors(index):
            pending[succ] -= 1
            if pending[succ] == 0:
                _heapq.heappush(ready, (layer_of.get(succ, -1), succ))
    if len(order) != len(dag):
        raise RoutingError("dependency graph has a cycle (internal error)")
    return order


def _solve_layer(
    pairs,
    future,
    start: Placement,
    device: Device,
) -> list[tuple[int, int]]:
    """A* search for a SWAP sequence making all ``pairs`` adjacent.

    Delegates to the packed-integer kernel of
    :mod:`repro.mapping.routing._astar_impl`: placements are single
    integers (one bit-field slot per program qubit), SWAPs are two XORs,
    and heap entries carry their heuristic terms so nothing is rescored
    at pop time.  With hop-count distances and the dyadic default
    look-ahead weights the kernel is bit-identical to the seed's full
    per-node rescore — same expansions, same tie-breaks, same SWAP
    sequence — at a fraction of the per-node cost.
    """
    return solve_layer_packed(
        list(pairs), list(future), start.key(), device, _MAX_EXPANSIONS
    )
