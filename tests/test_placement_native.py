"""The placers' rewritten loops against what they replaced.

:func:`assignment_placement` climbs in the native kernel
(:func:`assignment_climb_native`) when it is available and in
:func:`_exchange_climb`, its Python mirror, when it is disabled or
declines the input.  Each climb input here runs on both and must give
the same permutations, the same final objective and the same counters
(exchanges scored and applied, rounds).  The inputs cover random
coupling graphs, some with a qubit no other qubit reaches (the
``m**2`` sentinel, which makes the hop span large), idle program qubits,
dummies, ``max_rounds`` 0, 1 and 20, and weights scaled to the kernel's
decline bound and one past it.

:func:`greedy_placement` scores free physical qubits from distance rows
and :func:`noise_aware_placement` skips exchanges that move no
interacting pair.  Both are compared with verbatim copies of the loops
they replaced: a greedy seed that scans every free physical qubit per
program qubit, and a noise-aware climb that re-sums every exchange.
The comparisons run on random devices and, for the noise-aware placer,
random edge errors.

The kernel parity tests run only when the kernel is available; the
greedy and noise-aware comparisons run on every leg.
"""

from __future__ import annotations

import pickle
from collections import Counter
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.devices import linear_device
from repro.devices.device import Device
from repro.mapping import placement as placement_mod
from repro.mapping.placement import (
    Placement,
    _exchange_climb,
    _pairs_cost,
    _partners,
    assignment_placement,
    greedy_placement,
    noise_aware_placement,
)
from repro.mapping.routing import _astar_native
from repro.mapping.routing._astar_native import (
    _CLIMB_BOUND,
    assignment_climb_native,
    kernel_stats,
    warm_kernel,
)
from repro.obs import Tracer, use_tracer
from repro.sim.noise import NoiseModel

_SETTINGS = dict(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

needs_kernel = pytest.mark.skipif(
    not warm_kernel(),
    reason="native kernel unavailable (no C compiler or REPRO_NO_NATIVE=1)",
)


# ----------------------------------------------------------------------
# Verbatim copies of the replaced loops
# ----------------------------------------------------------------------

def _pairs_cost_by_calls(pairs, device, placement, distance_matrix=None):
    total = 0.0
    if distance_matrix is None:
        for (a, b), weight in pairs.items():
            d = device.distance(placement.phys(a), placement.phys(b))
            total += weight * max(0, d - 1)
    else:
        for (a, b), weight in pairs.items():
            total += weight * distance_matrix[placement.phys(a)][placement.phys(b)]
    return total


def _partners_of_circuit(circuit, size):
    partners = [[] for _ in range(size)]
    for (a, b), weight in circuit.interaction_pairs().items():
        partners[a].append((b, weight))
        partners[b].append((a, weight))
    return partners


def scan_greedy_placement(circuit, device):
    placement_mod._check_fits(circuit, device)
    n, m = circuit.num_qubits, device.num_qubits
    partners = _partners_of_circuit(circuit, n)
    strength = [sum(w for _, w in partners[q]) for q in range(n)]

    order = sorted(range(n), key=lambda q: -strength[q])
    degree = [len(device.neighbours[p]) for p in range(m)]
    mapping: dict[int, int] = {}
    used: set[int] = set()

    for prog in order:
        placed_partners = [(mapping[o], w) for o, w in partners[prog] if o in mapping]
        best_phys, best_cost = None, None
        for phys in range(m):
            if phys in used:
                continue
            if placed_partners:
                cost = sum(w * device.distance(phys, o) for o, w in placed_partners)
            else:
                cost = -degree[phys]  # isolated: prefer well-connected spots
            tie = (cost, -degree[phys], phys)
            if best_cost is None or tie < best_cost:
                best_cost, best_phys = tie, phys
        assert best_phys is not None
        mapping[prog] = best_phys
        used.add(best_phys)

    return Placement.from_partial(mapping, n, m)


def resum_noise_aware_placement(circuit, device, noise, *, max_rounds=20):
    from repro.mapping.routing.reliability import _weighted

    _, _, weighted = _weighted(device, noise)
    matrix = weighted.matrix
    placement = scan_greedy_placement(circuit, device)
    pairs = circuit.interaction_pairs()
    best = _pairs_cost_by_calls(pairs, device, placement, matrix)
    m = device.num_qubits
    for _ in range(max_rounds):
        improved = False
        for a in range(m):
            for b in range(a + 1, m):
                placement.apply_swap(a, b)
                cost = _pairs_cost_by_calls(pairs, device, placement, matrix)
                if cost < best - 1e-12:
                    best = cost
                    improved = True
                else:
                    placement.apply_swap(a, b)
        if not improved:
            break
    return placement


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

@st.composite
def devices(draw, min_qubits=2, max_qubits=10):
    """A random coupling graph; with ``isolate`` the last qubit has no
    edge, so every distance to it is the ``m**2`` sentinel."""
    m = draw(st.integers(min_value=min_qubits, max_value=max_qubits))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    if draw(st.booleans()):
        edges = [(a, b) for a, b in edges if b != m - 1]
    return Device("random", m, edges, ["cnot", "h", "rz"])


@st.composite
def circuits_on(draw, device):
    """A random circuit that fits on ``device``; some of its qubits may
    stay idle."""
    m = device.num_qubits
    n = draw(st.integers(min_value=1, max_value=m))
    circuit = Circuit(n)
    if n >= 2:
        active = draw(st.integers(min_value=2, max_value=n))
        for _ in range(draw(st.integers(min_value=0, max_value=30))):
            a = draw(st.integers(min_value=0, max_value=active - 1))
            b = draw(st.integers(min_value=0, max_value=active - 1).filter(lambda x: x != a))
            circuit.cnot(a, b)
    return circuit


@st.composite
def instances(draw):
    device = draw(devices())
    return draw(circuits_on(device)), device


def _hop_span(device) -> int:
    flat = device.distance_flat
    return max(flat) - min(flat)


@st.composite
def climbs(draw):
    """A device, an interaction histogram over some of ``num_program``
    program qubits, a starting permutation and a round limit.

    ``scale`` multiplies the weights up to the decline bound (``"at"``:
    hop span times the summed partner weights is at most ``2**53``) or
    one step past it (``"over"``).
    """
    device = draw(devices())
    m = device.num_qubits
    num_program = draw(st.integers(min_value=1, max_value=m))
    pairs: Counter = Counter()
    if num_program >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            a, b = sorted(draw(st.lists(
                st.integers(min_value=0, max_value=num_program - 1),
                min_size=2, max_size=2, unique=True,
            )))
            pairs[(a, b)] += draw(st.integers(min_value=1, max_value=9))
    scale = draw(st.sampled_from([None, None, "at", "over"]))
    total = 2 * sum(pairs.values())
    if scale is not None and total:
        factor = _CLIMB_BOUND // (_hop_span(device) * total) + (scale == "over")
        pairs = Counter({pair: w * factor for pair, w in pairs.items()})
    perm = draw(st.permutations(range(m)))
    max_rounds = draw(st.sampled_from([0, 1, 20]))
    return device, pairs, list(perm), num_program, max_rounds


def _climb_both(device, pairs, perm, num_program, max_rounds):
    """Climb from ``perm`` in the kernel and in Python; return both
    placements and results."""
    partners = _partners(pairs, device.num_qubits)
    native_pl = Placement(perm, num_program)
    python_pl = Placement(perm, num_program)
    best = _pairs_cost(pairs, device, native_pl)
    native = assignment_climb_native(
        device, partners, native_pl._p2h, native_pl._h2p, best, max_rounds
    )
    python = _exchange_climb(
        partners, device.distance_matrix, python_pl, best, max_rounds
    )
    return native_pl, native, python_pl, python


# ----------------------------------------------------------------------
# The native climb
# ----------------------------------------------------------------------

@needs_kernel
class TestClimbParity:
    @given(climbs())
    @settings(**_SETTINGS)
    def test_kernel_matches_python_climb(self, case):
        device, pairs, perm, num_program, max_rounds = case
        before = kernel_stats()
        native_pl, native, python_pl, python = _climb_both(*case)
        after = kernel_stats()
        total = 2 * sum(pairs.values())
        if _hop_span(device) * total > _CLIMB_BOUND:
            # Past the bound the kernel declines and leaves the
            # placement alone.
            assert native is None
            assert native_pl == Placement(perm, num_program)
            assert after["placement_native_calls"] == before["placement_native_calls"]
            return
        assert native is not None
        assert native == python  # best, scored, applied, rounds
        assert native_pl._p2h == python_pl._p2h
        assert native_pl._h2p == python_pl._h2p
        assert after["placement_native_calls"] == before["placement_native_calls"] + 1

    def test_weights_at_the_bound_climb_natively(self):
        # Linear 5: hop span 4.  One pair of weight 2**50 counts twice in
        # the partner lists: 4 * 2**51 is exactly the bound.
        device = linear_device(5)
        for weight, runs in ((2**50, True), (2**50 + 1, False)):
            pairs = Counter({(0, 1): weight})
            native_pl, native, python_pl, python = _climb_both(
                device, pairs, [0, 4, 2, 1, 3], 3, 20
            )
            assert (native is not None) == runs
            if runs:
                assert native == python
                assert native[2] > 0  # the climb moved something
                assert native_pl == python_pl

    def test_declines_leave_the_placement_alone(self, monkeypatch):
        device = linear_device(6)
        pairs = Counter({(0, 3): 2, (1, 2): 1})
        partners = _partners(pairs, 6)
        start = Placement([5, 0, 3, 1, 2, 4], 4)
        best = _pairs_cost(pairs, device, start)

        def climb(partners=partners, best=best, rounds=20):
            trial = start.copy()
            got = assignment_climb_native(
                device, partners, trial._p2h, trial._h2p, best, rounds
            )
            if got is None:
                assert trial == start
            return got

        assert climb() is not None
        assert climb(best=best + 0.5) is None  # not integral
        assert climb(best=float("nan")) is None
        assert climb(best=2**53 + 1) is None
        assert climb(rounds=2.0) is None
        weighted = [list(row) for row in partners]
        weighted[0] = [(3, 2.0)]
        assert climb(partners=weighted) is None  # a float weight
        assert climb(partners=partners[:5]) is None
        outside = start.copy()
        outside._p2h[0] = 6
        assert assignment_climb_native(
            device, partners, outside._p2h, start._h2p, best, 20
        ) is None
        # The objective leaves -2**53 during the climb (a start below the
        # true cost): the kernel stops and hands the climb back.
        assert climb(best=-(2**53) + 1) is None
        held = device.routing_tables["hops32"]
        device.routing_tables["hops32"] = None
        assert climb() is None
        device.routing_tables["hops32"] = held
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert climb() is None

    def test_device_pickles_after_a_climb(self):
        device = linear_device(7)
        circuit = Circuit(4).cnot(0, 3).cnot(1, 2).cnot(0, 2).cnot(3, 1)
        placed = assignment_placement(circuit, device)
        clone = pickle.loads(pickle.dumps(device))
        assert clone.routing_tables["hop_span"] == device.routing_tables["hop_span"]
        assert assignment_placement(circuit, clone) == placed


class TestPlacementPaths:
    """Both paths give the same placement and the same counters; the
    path counters say which one ran."""

    @given(instances())
    @settings(**_SETTINGS)
    def test_forced_decline_places_identically(self, instance):
        circuit, device = instance
        counters = {}
        placed = {}
        for path in ("default", "python"):
            tracer = Tracer()
            declined = mock.patch.object(
                _astar_native, "assignment_climb_native", return_value=None
            )
            with use_tracer(tracer), declined if path == "python" else nullcontext():
                placed[path] = assignment_placement(circuit, device)
            counters[path] = tracer.counters()
        assert placed["default"] == placed["python"]
        climb = ("assignment.exchanges_scored", "assignment.exchanges_applied",
                 "assignment.rounds")
        assert [counters["default"].get(k, 0) for k in climb] == [
            counters["python"].get(k, 0) for k in climb
        ]
        assert counters["python"].get("placement.python_calls") == 1
        assert "placement.native_calls" not in counters["python"]
        native = warm_kernel()
        assert counters["default"].get("placement.native_calls", 0) == int(native)
        assert counters["default"].get("placement.python_calls", 0) == int(not native)


# ----------------------------------------------------------------------
# Greedy seeding and the noise-aware climb
# ----------------------------------------------------------------------

class TestGreedyMatchesScan:
    @given(instances())
    @settings(**_SETTINGS)
    @example((Circuit(3).cnot(0, 1).cnot(1, 2), linear_device(5)))
    def test_greedy_identical(self, instance):
        circuit, device = instance
        assert (
            greedy_placement(circuit, device).prog_to_phys()
            == scan_greedy_placement(circuit, device).prog_to_phys()
        )

    def test_ties_prefer_degree_then_index(self):
        # A star around qubit 3 with a tail on 4: the isolated seed goes
        # to the hub, and its partner to the neighbour of degree 2, not
        # to the lower-numbered leaves at the same distance.
        device = Device(
            "star", 6, [(3, 0), (3, 1), (3, 2), (3, 4), (4, 5)], ["cnot"]
        )
        circuit = Circuit(2).cnot(0, 1)
        assert greedy_placement(circuit, device).prog_to_phys()[:2] == [3, 4]


@st.composite
def noisy_instances(draw):
    circuit, device = draw(instances())
    noise = NoiseModel.with_random_edge_errors(
        device, seed=draw(st.integers(min_value=0, max_value=2**16))
    )
    return circuit, device, noise, draw(st.sampled_from([1, 2, 20]))


class TestNoiseAwareMatchesResum:
    @given(noisy_instances())
    @settings(**_SETTINGS)
    def test_noise_aware_identical_with_fewer_resums(self, case):
        circuit, device, noise, rounds = case
        tracer = Tracer()
        with use_tracer(tracer):
            placed = noise_aware_placement(circuit, device, noise, max_rounds=rounds)
        assert placed.prog_to_phys() == resum_noise_aware_placement(
            circuit, device, noise, max_rounds=rounds
        ).prog_to_phys()
        # Every re-sum moves a program qubit with partners, on either
        # side of the exchange.  Such a qubit is re-summed at most m - 1
        # times per round as the lower position of a pair (its partner
        # positions only grow) and at most once per lower position as
        # the upper one, so a round re-sums at most 2k(m - 1) times for
        # k interacting qubits, against m(m - 1)/2 before.
        m = device.num_qubits
        k = sum(1 for row in _partners(circuit.interaction_pairs(), m) if row)
        resums = tracer.counters().get("noise_aware.resums", 0)
        assert resums <= rounds * min(2 * k * (m - 1), m * (m - 1) // 2)
        if k == 0:
            assert resums == 0
