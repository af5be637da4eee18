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

The loop itself is :mod:`repro.mapping.routing.family`, shared with the
sabre, latency and reliability routers.
"""

from __future__ import annotations

from ...core.circuit import Circuit
from ...devices.device import Device
from ..placement import Placement
from ._astar_native import hop_distances
from .base import RoutingResult
from .family import Policy, route_family

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
    placement = placement or Placement.trivial(device.num_qubits, circuit.num_qubits)
    result = route_family(
        circuit, device, placement,
        _ShuttlePolicy(device, placement.num_program, shuttle_cost, swap_cost),
        dist=hop_distances(device),
        lookahead=lookahead,
        extended_weight=extended_weight,
    )
    shuttles = result.circuit.count("shuttle") - circuit.count("shuttle")
    swaps = result.added_swaps - shuttles
    result.metadata = {
        "shuttles": shuttles,
        "swaps": swaps,
        "move_cost": shuttles * shuttle_cost + swaps * swap_cost,
        "lookahead": lookahead,
    }
    return result


class _ShuttlePolicy(Policy):
    """Distance score plus a tenth of the move's cost, then the cost.

    A move is a shuttle when the device shuttles and one of its sites is
    free (holds a dummy program index), and a SWAP otherwise.
    """

    router = "shuttle"

    def __init__(
        self, device: Device, num_program: int, shuttle_cost: float, swap_cost: float
    ) -> None:
        self.max_stall = 4 * device.num_qubits * device.num_qubits + 16
        self.can_shuttle = "shuttling" in device.features
        self.num_program = num_program
        self.shuttle_cost = shuttle_cost
        self.swap_cost = swap_cost

    def choose(self, candidates, terms):
        free = set(terms.p2h[self.num_program:]) if self.can_shuttle else ()
        best = best_key = None
        for pa, pb in candidates:
            cost = self.shuttle_cost if pa in free or pb in free else self.swap_cost
            key = (terms.score(pa, pb) + 0.1 * cost, cost)
            # Candidates come sorted, so the first minimum wins ties.
            if best is None or key < best_key:
                best, best_key = (pa, pb), key
        return best

    def gate(self, pa, pb, h2p):
        num_program = self.num_program
        if self.can_shuttle and (h2p[pa] >= num_program or h2p[pb] >= num_program):
            return "shuttle"
        return "swap"
