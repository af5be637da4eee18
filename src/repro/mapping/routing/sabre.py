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

The loop itself is :mod:`repro.mapping.routing.family`, shared with the
latency and reliability routers.
"""

from __future__ import annotations

from ...core.circuit import Circuit
from ...devices.device import Device
from ..placement import Placement
from ._astar_native import Distances, hop_distances
from .base import RoutingResult
from .family import Policy, route_family

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
    result = route_family(
        circuit, device, placement,
        _SabrePolicy(device.num_qubits, use_decay, swap_penalty),
        dist=(
            hop_distances(device) if distance_matrix is None
            else Distances(distance_matrix)
        ),
        lookahead=lookahead,
        extended_weight=extended_weight,
        commutation=commutation,
    )
    result.metadata = {"lookahead": lookahead, "extended_weight": extended_weight}
    return result


class _SabrePolicy(Policy):
    """Distance score, plus the SWAP's own penalty, times the decay."""

    router = "sabre"

    def __init__(self, num_qubits: int, use_decay: bool, swap_penalty) -> None:
        self.max_stall = 4 * num_qubits * num_qubits + 16
        self.swap_penalty = swap_penalty
        self.decay = [1.0] * num_qubits if use_decay else None
        self.decisions = 0

    def kernel_options(self):
        # The kernel cannot call back into a Python penalty.
        if self.swap_penalty is not None:
            return None
        return {"use_decay": self.decay is not None}

    def choose(self, candidates, terms):
        penalty = self.swap_penalty
        decay = self.decay
        best = best_score = None
        for pa, pb in candidates:
            score = terms.score(pa, pb)
            if penalty is not None:
                score += penalty(pa, pb)
            if decay is not None:
                score *= max(decay[pa], decay[pb])
            # Candidates come sorted, so the first minimum wins ties.
            if best is None or score < best_score:
                best, best_score = (pa, pb), score
        return best

    def decided(self, pa, pb):
        self.decisions += 1
        if self.decay is not None:
            if self.decisions % _DECAY_RESET == 0:
                self.decay = [1.0] * len(self.decay)
            self.decay[pa] += _DECAY_STEP
            self.decay[pb] += _DECAY_STEP
