"""Reliability-aware router.

Section III-B: "Recent works started optimising directly for circuit
reliability (i.e. minimize the error rate by choosing the most reliable
paths)" — references [45]-[47] and the variability-aware policies of
[50].  The router keeps the SABRE front-layer structure but scores on
*error-weighted* distances derived from a
:class:`~repro.sim.noise.NoiseModel`: the distance between two physical
qubits is the negative log success probability of the most reliable
connecting path, so interacting qubits are steered through the chip's
good edges rather than its geometrically shortest ones.

Two reliability-specific ingredients keep it sound:

* candidate SWAPs must make *strict progress* on the blocked front layer
  (weighted distance decreases) whenever any such swap exists — a flat
  error landscape must not stall the router;
* each candidate is charged the error of the SWAP itself (three
  two-qubit gates on its edge), so marginal detours over good edges do
  not beat a single mediocre hop.

Pair with :func:`repro.mapping.placement.noise_aware_placement` for the
full variability-aware flow.
"""

from __future__ import annotations

import math
from array import array

from ...core.circuit import Circuit
from ...devices.device import Device
from ...sim.noise import NoiseModel
from ..placement import Placement
from ._astar_native import Distances
from .base import RoutingResult
from .family import Policy, route_family

__all__ = ["route_reliability"]


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
    swap_error, swap_errors, dist = _weighted(device, model)
    result = route_family(
        circuit, device, placement,
        _ReliabilityPolicy(device, swap_error, swap_errors),
        dist=dist,
        lookahead=lookahead,
        extended_weight=extended_weight,
    )
    result.metadata = {"lookahead": lookahead, "noise_aware": True}
    return result


def _weighted(device: Device, model: NoiseModel):
    """Each edge's SWAP error, by edge and in edge order, and the
    error-weighted distances under ``model``, computed once per device
    and edge errors for this router and
    :func:`~repro.mapping.placement.noise_aware_placement`.

    Both read only the error of each undirected edge, so those errors
    (and their types) key the tables.  The device holds the latest set
    in its ``routing_tables``, with the kernel's form of the matrix; a
    call under other errors replaces it.
    """
    errors = tuple(
        model.edge_error.get(edge, model.error_2q)
        for edge in device.undirected_edge_list
    )
    key = errors + tuple(map(type, errors))
    held = device.routing_tables.get("reliability")
    if held is not None and held[0] == key:
        return held[1]
    # -log success of each edge's SWAP: three two-qubit gates.
    swap_error = {
        edge: -3.0 * math.log(max(1.0 - error, 1e-12))
        for edge, error in zip(device.undirected_edge_list, errors)
    }
    entry = (
        swap_error,
        array("d", swap_error.values()),
        Distances(model.weighted_distance_matrix(device)),
    )
    device.routing_tables["reliability"] = (key, entry)
    return entry


class _ReliabilityPolicy(Policy):
    """Strict progress first, then the weighted score plus the SWAP's own
    error.  The score is re-summed in full: its float sums drive exact
    tie-breaks, where base plus delta could round differently."""

    router = "reliability"

    def __init__(self, device: Device, swap_error: dict, swap_errors: array) -> None:
        # Tighter than SABRE's guard: on a flat error landscape we prefer
        # to bail out to a plain shortest-path burst early.
        self.max_stall = 2 * device.num_qubits + 8
        self.swap_error = swap_error
        self.swap_errors = swap_errors

    def kernel_options(self):
        return {"swap_error": self.swap_errors}

    def choose(self, candidates, terms):
        best = best_score = progress = progress_score = None
        for pa, pb in candidates:
            d_front, score = terms.resum(pa, pb)
            score += self.swap_error[pa, pb]
            # Only SWAPs that strictly shorten the blocked front compete
            # when there are any: a flat landscape must not stall.
            if d_front < -1e-12 and (progress is None or score < progress_score):
                progress, progress_score = (pa, pb), score
            if best is None or score < best_score:
                best, best_score = (pa, pb), score
        return progress or best
