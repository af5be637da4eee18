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
from ...devices.device import Device
from ..placement import Placement
from .base import RoutingResult
from .family import Policy, route_family

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
    policy = _LatencyPolicy(device, latency_weight)
    result = route_family(
        circuit, device, placement, policy,
        dist=device.distance_matrix,
        lookahead=lookahead,
        extended_weight=extended_weight,
        commutation=commutation,
    )
    result.metadata = {
        "estimated_latency": max(policy.avail, default=0),
        "lookahead": lookahead,
        "latency_weight": latency_weight,
    }
    return result


class _LatencyPolicy(Policy):
    """Distance score plus the weighted cycle at which the SWAP could start.

    ``avail`` is an incremental ASAP schedule on physical qubits: the
    cycle at which each becomes free.  It advances on every emitted gate
    and on every chosen SWAP, but not on the SWAPs of a forced route.
    """

    router = "latency"

    def __init__(self, device: Device, latency_weight: float) -> None:
        self.max_stall = 4 * device.num_qubits * device.num_qubits + 16
        self.device = device
        self.latency_weight = latency_weight
        self.avail = [0] * device.num_qubits
        self.swap_duration = device.duration("swap")

    def choose(self, candidates, terms):
        avail = self.avail
        weight = self.latency_weight
        best = best_key = None
        for pa, pb in candidates:
            # Looking-back: when could this SWAP start, given the gates
            # already scheduled on its qubits?
            key = terms.score(pa, pb) + weight * max(avail[pa], avail[pb])
            if best is None or key < best_key:
                best, best_key = (pa, pb), key
        pa, pb = best
        avail[pa] = avail[pb] = max(avail[pa], avail[pb]) + self.swap_duration
        return best

    def emitted(self, gate):
        avail = self.avail
        start = max((avail[p] for p in gate.qubits), default=0)
        finish = start + (0 if gate.is_barrier else self.device.duration(gate))
        for p in gate.qubits:
            avail[p] = finish
