"""Qubit placement: the program-qubit to physical-qubit map.

Section III-A, task 2: "initialize and maintain the map specifying which
physical qubit is associated to each program qubit".  The paper's
Section VI-B represents placement as "an array of integers of size equal
to the number of physical qubits: the k-th entry corresponds to the index
of the program qubit associated to the k-th physical qubit, apart from a
special integer indicating that the qubit is free".  :class:`Placement`
implements exactly that array (plus the inverse view), with free physical
qubits carrying *dummy* program indices ``n, n+1, ...`` so that the
placement is always a full bijection — which makes routing SWAPs and
final-permutation equivalence checks uniform.

Initial-placement strategies:

* :func:`trivial_placement` — program qubit ``i`` on physical qubit ``i``;
* :func:`random_placement` — a seeded random bijection (baseline);
* :func:`greedy_placement` — interaction-graph driven: busiest program
  qubits onto best-connected physical neighbourhoods;
* :func:`assignment_placement` — the "ILP block" of Qmap (Section V),
  realised as a quadratic-assignment heuristic: a greedy seed refined by
  pairwise-exchange hill climbing on the weighted-distance objective;
* :func:`exhaustive_placement` — brute force over all injections, the
  exact optimum for small instances.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from ..core.circuit import Circuit
from ..devices.device import Device
from ..obs import add_counter

__all__ = [
    "Placement",
    "FREE",
    "placement_cost",
    "trivial_placement",
    "random_placement",
    "greedy_placement",
    "assignment_placement",
    "exhaustive_placement",
    "get_placer",
    "PLACERS",
]

#: Marker returned by :meth:`Placement.prog` for free physical qubits.
FREE = -1


class Placement:
    """A bijection between program qubits (plus dummies) and physical qubits.

    Program qubits ``0 .. num_program - 1`` are real; indices
    ``num_program .. num_physical - 1`` are dummies standing for free
    physical qubits, so every physical qubit always hosts exactly one
    (possibly dummy) program index.
    """

    __slots__ = ("num_program", "_p2h", "_h2p")

    def __init__(self, prog_to_phys: Sequence[int], num_program: int | None = None):
        """Args:
            prog_to_phys: ``prog_to_phys[i]`` is the physical qubit hosting
                program index ``i``; must be a permutation of
                ``0 .. len - 1``.
            num_program: How many leading indices are real program qubits
                (defaults to all of them).
        """
        m = len(prog_to_phys)
        if sorted(prog_to_phys) != list(range(m)):
            raise ValueError(f"{list(prog_to_phys)!r} is not a permutation")
        self.num_program = m if num_program is None else int(num_program)
        if not 0 <= self.num_program <= m:
            raise ValueError("num_program out of range")
        self._p2h = list(prog_to_phys)
        self._h2p = [0] * m
        for prog, phys in enumerate(self._p2h):
            self._h2p[phys] = prog

    # ------------------------------------------------------------------

    @classmethod
    def trivial(cls, num_physical: int, num_program: int | None = None) -> "Placement":
        """Identity placement on ``num_physical`` qubits."""
        return cls(list(range(num_physical)), num_program)

    @classmethod
    def from_partial(
        cls, mapping: dict[int, int], num_program: int, num_physical: int
    ) -> "Placement":
        """Complete a partial program->physical map with dummies.

        Args:
            mapping: Physical target for each real program qubit
                (must cover ``0 .. num_program - 1`` injectively).
        """
        if sorted(mapping) != list(range(num_program)):
            raise ValueError("mapping must cover every program qubit")
        used = set(mapping.values())
        if len(used) != num_program:
            raise ValueError("mapping is not injective")
        free = [p for p in range(num_physical) if p not in used]
        p2h = [mapping[i] for i in range(num_program)] + free
        return cls(p2h, num_program)

    # ------------------------------------------------------------------

    @property
    def num_physical(self) -> int:
        return len(self._p2h)

    def phys(self, prog: int) -> int:
        """Physical qubit hosting program index ``prog``."""
        return self._p2h[prog]

    def prog(self, phys: int) -> int:
        """Program index on physical qubit ``phys`` (:data:`FREE` if dummy)."""
        p = self._h2p[phys]
        return p if p < self.num_program else FREE

    def slot(self, phys: int) -> int:
        """Program index on ``phys`` including dummies (always valid)."""
        return self._h2p[phys]

    def prog_to_phys(self) -> list[int]:
        """Copy of the program->physical array (dummies included)."""
        return list(self._p2h)

    def phys_to_prog(self) -> list[int]:
        """The paper's array: program index per physical qubit, FREE for dummies."""
        return [self.prog(p) for p in range(self.num_physical)]

    def apply_swap(self, phys_a: int, phys_b: int) -> None:
        """Record a SWAP on physical qubits ``phys_a`` and ``phys_b``."""
        pa, pb = self._h2p[phys_a], self._h2p[phys_b]
        self._h2p[phys_a], self._h2p[phys_b] = pb, pa
        self._p2h[pa], self._p2h[pb] = phys_b, phys_a

    def copy(self) -> "Placement":
        return Placement(self._p2h, self.num_program)

    def key(self) -> tuple[int, ...]:
        """Hashable identity of the placement (for search visited-sets)."""
        return tuple(self._p2h)

    def permutation_to(self, final: "Placement") -> list[int]:
        """Physical permutation sigma with ``sigma[p]`` = where the state
        initially on physical qubit ``p`` resides under ``final``.

        Used by the equivalence checker: the mapped circuit equals the
        original (placed initially) followed by this permutation.
        """
        if final.num_physical != self.num_physical:
            raise ValueError("placements have different sizes")
        return [final._p2h[self._h2p[p]] for p in range(self.num_physical)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self._p2h == other._p2h and self.num_program == other.num_program

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"q{i}->Q{self._p2h[i]}" for i in range(self.num_program)
        )
        return f"<Placement {pairs}>"


# ---------------------------------------------------------------------------
# Cost model shared by the placement strategies
# ---------------------------------------------------------------------------

def placement_cost(
    circuit: Circuit,
    device: Device,
    placement: Placement,
    distance_matrix=None,
) -> float:
    """Weighted routing-distance estimate of a placement.

    With the default hop-count matrix: sum over two-qubit gates of
    ``distance(phys_a, phys_b) - 1`` — zero when every interacting pair
    is adjacent, and a lower bound on the number of SWAPs routing will
    need (each SWAP reduces one gate's distance by at most one).

    With an explicit ``distance_matrix`` (e.g. error-weighted distances
    from :meth:`repro.sim.noise.NoiseModel.weighted_distance_matrix`):
    sum of ``weight * distance`` without the adjacency discount, so
    adjacent-but-unreliable edges still cost — the basis of noise-aware
    placement.
    """
    return _pairs_cost(
        circuit.interaction_pairs(), device, placement, distance_matrix
    )


def _pairs_cost(pairs, device: Device, placement: Placement,
                distance_matrix=None) -> float:
    """:func:`placement_cost` over a precomputed interaction histogram.

    Placers that score many candidates build ``pairs`` once; iterating
    the same ``Counter`` keeps the float summation order unchanged.
    """
    total = 0.0
    p2h = placement._p2h
    if distance_matrix is None:
        dist = device.distance_matrix
        for (a, b), weight in pairs.items():
            d = dist[p2h[a]][p2h[b]]
            total += weight * (d - 1 if d > 1 else 0)
    else:
        for (a, b), weight in pairs.items():
            total += weight * distance_matrix[p2h[a]][p2h[b]]
    return total


def _partners(pairs, size: int) -> list[list[tuple[int, int]]]:
    """Interaction partners ``[(other, weight)]`` of program indices
    ``0 .. size - 1``, in the order of ``pairs``, a circuit's
    :meth:`Circuit.interaction_pairs` histogram.

    With ``size`` the device's qubit count every slot of a placement has
    an entry: dummies (and program qubits without two-qubit gates) get
    an empty list.
    """
    partners: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for (a, b), weight in pairs.items():
        partners[a].append((b, weight))
        partners[b].append((a, weight))
    return partners


def _exchange_delta(partners, dist, p2h, h2p, a: int, b: int) -> int:
    """Exact change of the hop-count :func:`placement_cost` when physical
    qubits ``a`` and ``b`` exchange their program indices.

    ``partners`` comes from :func:`_partners`, ``dist`` is the device's
    :attr:`~repro.devices.device.Device.distance_matrix`, and ``p2h`` /
    ``h2p`` are the placement's program-to-physical and
    physical-to-program arrays.

    Only pairs touching the program index on ``a`` or on ``b`` move.
    Their other end sits on neither qubit, so both distances of such a
    pair join distinct qubits, are at least 1, and the ``max(0, d - 1)``
    discount cancels from the difference.  The pair joining the two
    exchanged indices keeps its distance, because hop counts on the
    undirected coupling graph are symmetric.
    """
    pa, pb = h2p[a], h2p[b]
    row_a, row_b = dist[a], dist[b]
    delta = 0
    for other, weight in partners[pa]:
        if other != pb:
            q = p2h[other]
            delta += weight * (row_b[q] - row_a[q])
    for other, weight in partners[pb]:
        if other != pa:
            q = p2h[other]
            delta += weight * (row_a[q] - row_b[q])
    return delta


def noise_aware_placement(
    circuit: Circuit,
    device: Device,
    noise,
    *,
    max_rounds: int = 20,
) -> Placement:
    """Variability-aware placement (Section III-B, [45]-[47], [50]).

    Hill-climbs the error-weighted distance objective, so interacting
    program qubits land on the device's most *reliable* region rather
    than merely a well-connected one.

    Args:
        noise: A :class:`repro.sim.noise.NoiseModel` with per-edge errors.

    Each trial exchange re-sums the float objective over the ``E``
    distinct interacting pairs, in histogram order, so a trial costs
    O(E).  An exchange of two positions that both hold indices without
    partners (free qubits, idle program qubits) moves no pair: its
    re-sum would return exactly ``best`` and the exchange would be
    reverted, so it is skipped.  A round therefore re-sums O(k * m)
    times for ``k`` interacting program qubits on ``m`` physical ones,
    instead of m(m-1)/2, with the same placement.  The re-sums of a
    call are reported as the ``noise_aware.resums`` counter.
    """
    # The reliability router's weighted distances, held on the device
    # (imported here: the routers import this module).
    from .routing.reliability import _weighted

    _, _, weighted = _weighted(device, noise)
    matrix = weighted.matrix
    pairs = circuit.interaction_pairs()
    placement = _greedy(circuit, device, pairs)
    best = _pairs_cost(pairs, device, placement, matrix)
    m = device.num_qubits
    partners = _partners(pairs, m)
    h2p = placement._h2p
    resums = 0
    for _ in range(max_rounds):
        improved = False
        for a in range(m):
            for b in range(a + 1, m):
                if not (partners[h2p[a]] or partners[h2p[b]]):
                    continue
                placement.apply_swap(a, b)
                cost = _pairs_cost(pairs, device, placement, matrix)
                resums += 1
                if cost < best - 1e-12:
                    best = cost
                    improved = True
                else:
                    placement.apply_swap(a, b)
        if not improved:
            break
    add_counter("noise_aware.resums", resums)
    return placement


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def trivial_placement(circuit: Circuit, device: Device) -> Placement:
    """Program qubit ``i`` on physical qubit ``i`` (the paper's default)."""
    _check_fits(circuit, device)
    return Placement.trivial(device.num_qubits, circuit.num_qubits)


def random_placement(
    circuit: Circuit, device: Device, seed: int = 0
) -> Placement:
    """A uniformly random placement (baseline for ablations)."""
    _check_fits(circuit, device)
    rng = random.Random(seed)
    perm = list(range(device.num_qubits))
    rng.shuffle(perm)
    return Placement(perm, circuit.num_qubits)


def greedy_placement(circuit: Circuit, device: Device) -> Placement:
    """Interaction-graph greedy placement.

    Repeatedly takes the unplaced program qubit with the strongest
    interaction to already-placed ones and puts it on the free physical
    qubit minimising the weighted distance to its placed partners —
    seeding with the busiest program qubit on the best-connected physical
    qubit.  Ties go to the higher-degree physical qubit, then the lower
    index.

    Each program qubit scores every physical qubit at once, one pass
    over a distance row per placed partner, so placing ``n`` program
    qubits with ``P`` placed partners in all costs O(m * (n + P)) list
    steps on ``m`` physical qubits.
    """
    return _greedy(circuit, device, circuit.interaction_pairs())


def _greedy(circuit: Circuit, device: Device, pairs) -> Placement:
    """:func:`greedy_placement` over ``circuit``'s interaction histogram
    ``pairs``, for placers that need the histogram themselves.

    A physical qubit's score is packed into one ``int`` key: the weighted
    distance times ``scale``, plus its tie-break (higher degree, then
    lower index) below ``scale``, so ``min`` of the keys picks the least
    ``(cost, -degree, phys)`` and ``key % m`` is the qubit.  The distance to a partner on ``o`` is read from row
    ``o``: hop counts on the undirected coupling graph are symmetric.
    Hop counts and weights are ``int``, so every sum is exact.  A placed
    qubit's key becomes ``inf`` and ``min`` never picks it.
    """
    _check_fits(circuit, device)
    n, m = circuit.num_qubits, device.num_qubits
    partners = _partners(pairs, n)
    strength = [sum(w for _, w in partners[q]) for q in range(n)]

    order = sorted(range(n), key=lambda q: -strength[q])
    degree = [len(device.neighbours[p]) for p in range(m)]
    dist = device.distance_matrix
    top = max(degree, default=0)
    scale = (top + 1) * m
    tie = [(top - d) * m + p for p, d in enumerate(degree)]
    # Isolated qubits score -degree: prefer well-connected spots.
    isolated = [t - d * scale for t, d in zip(tie, degree)]
    inf = float("inf")
    mapping: dict[int, int] = {}

    for prog in order:
        keys = None
        for other, weight in partners[prog]:
            phys = mapping.get(other)
            if phys is not None:
                step = weight * scale
                keys = [
                    k + step * d
                    for k, d in zip(tie if keys is None else keys, dist[phys])
                ]
        best_phys = min(isolated if keys is None else keys) % m
        mapping[prog] = best_phys
        tie[best_phys] = isolated[best_phys] = inf

    return Placement.from_partial(mapping, n, m)


def assignment_placement(
    circuit: Circuit, device: Device, *, max_rounds: int = 20
) -> Placement:
    """Qmap-style optimised initial placement (the paper's "ILP" block).

    Starts from :func:`greedy_placement` and hill-climbs with pairwise
    exchanges of physical positions until the weighted-distance objective
    (:func:`placement_cost`) stops improving.  This reaches the ILP
    optimum on the paper-scale instances while staying polynomial.

    Each trial exchange is scored by its exact integer change of the
    objective (:func:`_exchange_delta`), summed over the partners of the
    two exchanged program qubits only; exchanges between two indices
    without partners (free qubits) cannot change it and are skipped.  A
    round over ``m`` physical qubits therefore costs O(m^2 + m * E) for
    ``E`` distinct interacting pairs, instead of O(m^2 * G) for re-summing
    ``G`` gates per trial, and visits and accepts exchanges in the same
    order as the full re-sum, so the placement is the same.

    The climb runs in the native kernel
    (:func:`~repro.mapping.routing._astar_native.assignment_climb_native`,
    one crossing per call), and in :func:`_exchange_climb`, its Python
    mirror, when the kernel is off or declines the input.  The greedy
    seed, the objective and the partner lists are built once per call
    from one interaction histogram.  Counters: ``placement.native_calls``
    or ``placement.python_calls``, then ``assignment.exchanges_scored``,
    ``assignment.exchanges_applied`` and ``assignment.rounds``, equal on
    both paths.
    """
    # Imported here: the routers import this module.
    from .routing._astar_native import (
        assignment_climb_native,
        note_placement_python_call,
    )

    pairs = circuit.interaction_pairs()
    placement = _greedy(circuit, device, pairs)
    best = _pairs_cost(pairs, device, placement)
    partners = _partners(pairs, device.num_qubits)
    climbed = assignment_climb_native(
        device, partners, placement._p2h, placement._h2p, best, max_rounds
    )
    if climbed is None:
        note_placement_python_call()
        climbed = _exchange_climb(
            partners, device.distance_matrix, placement, best, max_rounds
        )
    _, scored, applied, rounds = climbed
    add_counter("assignment.exchanges_scored", scored)
    add_counter("assignment.exchanges_applied", applied)
    add_counter("assignment.rounds", rounds)
    return placement


def _exchange_climb(partners, dist, placement: Placement, best, max_rounds: int):
    """The pairwise-exchange climb of :func:`assignment_placement`, in
    Python: the reference the native kernel mirrors.

    Rounds visit every physical pair ``a < b`` in ascending order, skip
    pairs whose two indices have no partners, and apply each exchange
    whose :func:`_exchange_delta` is negative; the climb stops after
    ``max_rounds`` rounds, a round without an exchange, or a round that
    ends with ``best`` at 0.  ``placement`` is updated in place.

    Returns:
        ``(best, exchanges scored, exchanges applied, rounds)``.
    """
    m = placement.num_physical
    p2h, h2p = placement._p2h, placement._h2p
    scored = applied = rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        for a in range(m):
            for b in range(a + 1, m):
                if not (partners[h2p[a]] or partners[h2p[b]]):
                    continue
                delta = _exchange_delta(partners, dist, p2h, h2p, a, b)
                scored += 1
                if delta < 0:
                    placement.apply_swap(a, b)
                    best += delta
                    applied += 1
                    improved = True
        if not improved or best == 0:
            break
    return best, scored, applied, rounds


def annealing_placement(
    circuit: Circuit,
    device: Device,
    *,
    seed: int = 0,
    steps: int = 2000,
    initial_temperature: float = 2.0,
) -> Placement:
    """Simulated-annealing placement.

    The stochastic counterpart of :func:`assignment_placement`'s
    hill-climbing (the metaheuristic family of Section III-B's
    "(M)ILP solvers / heuristic algorithms" taxonomy): random pairwise
    exchanges are accepted when they improve the weighted-distance
    objective or, with Boltzmann probability, when they worsen it —
    escaping the local minima the greedy exchange gets stuck in.

    Args:
        circuit: Input circuit on program qubits.
        device: Target device.
        seed: RNG seed (the schedule is deterministic given it).
        steps: Number of proposed exchanges.
        initial_temperature: Starting temperature; decays geometrically
            to ~1e-3 of its initial value over the run.

    Returns:
        The best placement visited.

    Each step scores its proposed exchange by the exact integer change of
    the objective (:func:`_exchange_delta`), in O(partners of the two
    exchanged program qubits) instead of O(G) for re-summing ``G`` gates,
    so the run costs O(steps * max partners) after the O(G) set-up.  The
    acceptance test and its random draws are those of the full re-sum.
    """
    import math as _math

    rng = random.Random(seed)
    pairs = circuit.interaction_pairs()
    placement = _greedy(circuit, device, pairs)
    current_cost = _pairs_cost(pairs, device, placement)
    best = placement.copy()
    best_cost = current_cost
    m = device.num_qubits
    if m < 2 or steps <= 0:
        return best
    decay = (1e-3) ** (1.0 / steps)
    temperature = initial_temperature
    partners = _partners(pairs, m)
    dist = device.distance_matrix
    p2h, h2p = placement._p2h, placement._h2p

    for _ in range(steps):
        a = rng.randrange(m)
        b = rng.randrange(m - 1)
        if b >= a:
            b += 1
        delta = _exchange_delta(partners, dist, p2h, h2p, a, b)
        if delta <= 0 or rng.random() < _math.exp(-delta / max(temperature, 1e-9)):
            placement.apply_swap(a, b)
            current_cost += delta
            if current_cost < best_cost:
                best_cost = current_cost
                best = placement.copy()
        temperature *= decay
    return best


def spectral_placement(circuit: Circuit, device: Device) -> Placement:
    """Spectral-embedding placement (reference [41] of the paper).

    Lin, Anschuetz and Harrow ("Using spectral graph theory to map
    qubits onto connectivity-limited devices") embed both the circuit's
    interaction graph and the device's coupling graph into the plane via
    the eigenvectors of their graph Laplacians (the Fiedler coordinates)
    and match the two point clouds.  Here the matching is solved exactly
    with the Hungarian algorithm on squared distances after normalising
    both embeddings.

    Qubits that never interact get arbitrary (but deterministic) spots.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    _check_fits(circuit, device)
    n, m = circuit.num_qubits, device.num_qubits

    program_points = _spectral_coordinates(
        n, [(a, b, w) for (a, b), w in circuit.interaction_pairs().items()]
    )
    device_points = _spectral_coordinates(
        m, [(a, b, 1.0) for a, b in device.undirected_edges()]
    )

    # Spectral coordinates are defined only up to reflection and axis
    # exchange; try all eight symmetries and keep the cheapest matching.
    best_mapping, best_total = None, None
    for flip_x in (1.0, -1.0):
        for flip_y in (1.0, -1.0):
            for swap_axes in (False, True):
                points = program_points * np.array([flip_x, flip_y])
                if swap_axes:
                    points = points[:, ::-1]
                cost = np.zeros((n, m))
                for prog in range(n):
                    delta = points[prog] - device_points
                    cost[prog] = np.einsum("ij,ij->i", delta, delta)
                rows, cols = linear_sum_assignment(cost)
                total = float(cost[rows, cols].sum())
                if best_total is None or total < best_total:
                    best_total = total
                    best_mapping = {
                        int(prog): int(phys) for prog, phys in zip(rows, cols)
                    }
    assert best_mapping is not None
    return Placement.from_partial(best_mapping, n, m)


def _spectral_coordinates(num_nodes: int, weighted_edges) -> "np.ndarray":
    """2D Fiedler coordinates of a weighted graph, normalised to [-1, 1]."""
    import numpy as np

    laplacian = np.zeros((num_nodes, num_nodes))
    for a, b, w in weighted_edges:
        laplacian[a, b] -= w
        laplacian[b, a] -= w
        laplacian[a, a] += w
        laplacian[b, b] += w
    values, vectors = np.linalg.eigh(laplacian)
    order = np.argsort(values)
    coords = np.zeros((num_nodes, 2))
    # Skip the constant eigenvector; take the next two.
    picked = 0
    for index in order[1:]:
        coords[:, picked] = vectors[:, index]
        picked += 1
        if picked == 2:
            break
    peak = np.max(np.abs(coords))
    if peak > 1e-12:
        coords /= peak
    return coords


def routed_placement(
    circuit: Circuit,
    device: Device,
    *,
    router: str = "sabre",
    max_rounds: int = 3,
) -> Placement:
    """Placement optimised against the *actual* routed SWAP count.

    The static weighted-distance objective of
    :func:`assignment_placement` is only a proxy: two placements with
    equal proxy cost can route to different SWAP counts because gate
    *order* matters.  This placer therefore hill-climbs with pairwise
    position exchanges, scoring each candidate by actually routing the
    circuit (added SWAPs, then routed depth as tie-break) — the strongest
    initial-placement block, matching the optimal-placement role of
    Qmap's ILP stage on paper-scale instances.

    Cost: O(num_physical^2) routing calls per round; intended for small
    and medium instances.  Falls back gracefully: the result is never
    worse than :func:`assignment_placement`'s.
    """
    from .routing import route  # local import; routing depends on this module

    placement = assignment_placement(circuit, device)

    def score(candidate: Placement) -> tuple[int, int]:
        result = route(circuit, device, router, candidate.copy())
        return result.added_swaps, result.circuit.depth()

    best = score(placement)
    m = device.num_qubits
    for _ in range(max_rounds):
        improved = False
        for a in range(m):
            for b in range(a + 1, m):
                placement.apply_swap(a, b)
                cost = score(placement)
                if cost < best:
                    best = cost
                    improved = True
                else:
                    placement.apply_swap(a, b)  # revert
        if not improved or best[0] == 0:
            break
    return placement


def exhaustive_placement(circuit: Circuit, device: Device) -> Placement:
    """Minimum-cost placement by brute force (small instances only).

    Enumerates all injections of program onto physical qubits; intended
    for validating the heuristics and for paper-scale examples.

    Raises:
        ValueError: when the search space exceeds ~10 million injections.
    """
    _check_fits(circuit, device)
    n, m = circuit.num_qubits, device.num_qubits
    space = 1
    for k in range(m, m - n, -1):
        space *= k
    if space > 10_000_000:
        raise ValueError(
            f"exhaustive placement over {space} injections is infeasible; "
            "use assignment_placement instead"
        )
    pairs = circuit.interaction_pairs()
    best_placement = trivial_placement(circuit, device)
    best = _pairs_cost(pairs, device, best_placement)
    for image in itertools.permutations(range(m), n):
        candidate = Placement.from_partial(
            dict(enumerate(image)), n, m
        )
        cost = _pairs_cost(pairs, device, candidate)
        if cost < best:
            best, best_placement = cost, candidate
            if best == 0:
                break
    return best_placement


def _check_fits(circuit: Circuit, device: Device) -> None:
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} qubits but device "
            f"{device.name!r} has {device.num_qubits}"
        )


#: Named placement strategies for CLI/bench parameterisation.
PLACERS = {
    "trivial": trivial_placement,
    "random": random_placement,
    "greedy": greedy_placement,
    "assignment": assignment_placement,
    "annealing": annealing_placement,
    "spectral": spectral_placement,
    "routed": routed_placement,
    "exhaustive": exhaustive_placement,
}


def get_placer(name: str):
    """Look up a placement strategy by name."""
    try:
        return PLACERS[name]
    except KeyError:
        raise KeyError(f"unknown placer {name!r}; available: {sorted(PLACERS)}")
