"""The delta-scored exchange climb against the full re-sum it replaced.

:func:`assignment_placement` and :func:`annealing_placement` score each
trial exchange by its exact integer change of :func:`placement_cost`.
The reference loops below re-sum the whole objective for every trial, as
both placers did before; on random circuits and random coupling graphs
(some with a qubit no other qubit can reach, so the distance matrix
holds its unreachable sentinel) both must return the same placement,
dummy positions included.
"""

from __future__ import annotations

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.devices.device import Device
from repro.mapping.placement import (
    _exchange_delta,
    _partners,
    annealing_placement,
    assignment_placement,
    greedy_placement,
    placement_cost,
    random_placement,
)

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def resum_assignment(circuit, device, max_rounds=20):
    """The pairwise-exchange climb, re-summing the cost for every trial."""
    placement = greedy_placement(circuit, device)
    best = placement_cost(circuit, device, placement)
    m = device.num_qubits
    for _ in range(max_rounds):
        improved = False
        for a in range(m):
            for b in range(a + 1, m):
                placement.apply_swap(a, b)
                cost = placement_cost(circuit, device, placement)
                if cost < best - 1e-12:
                    best = cost
                    improved = True
                else:
                    placement.apply_swap(a, b)
        if not improved or best == 0:
            break
    return placement


def resum_annealing(circuit, device, seed, steps, initial_temperature=2.0):
    """Simulated annealing, re-summing the cost for every proposal."""
    rng = random.Random(seed)
    placement = greedy_placement(circuit, device)
    current_cost = placement_cost(circuit, device, placement)
    best = placement.copy()
    best_cost = current_cost
    m = device.num_qubits
    if m < 2 or steps <= 0:
        return best
    decay = (1e-3) ** (1.0 / steps)
    temperature = initial_temperature
    for _ in range(steps):
        a = rng.randrange(m)
        b = rng.randrange(m - 1)
        if b >= a:
            b += 1
        placement.apply_swap(a, b)
        cost = placement_cost(circuit, device, placement)
        delta = cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            current_cost = cost
            if cost < best_cost:
                best_cost = cost
                best = placement.copy()
        else:
            placement.apply_swap(a, b)
        temperature *= decay
    return best


@st.composite
def instances(draw):
    """A random coupling graph and a random circuit that fits on it.

    With ``isolate`` the last physical qubit loses all its edges, so
    every distance to it is the unreachable sentinel.
    """
    m = draw(st.integers(min_value=2, max_value=9))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    if draw(st.booleans()):
        edges = [(a, b) for a, b in edges if b != m - 1]
    device = Device("random", m, edges, ["cnot", "h", "rz"])
    n = draw(st.integers(min_value=1, max_value=m))
    circuit = Circuit(n)
    if n >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=24))):
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != a))
            circuit.cnot(a, b)
    return circuit, device


class TestExchangeDelta:
    @given(instances(), st.integers(min_value=0, max_value=2**16))
    @settings(**_SETTINGS)
    def test_delta_equals_resummed_difference(self, instance, seed):
        circuit, device = instance
        placement = random_placement(circuit, device, seed=seed)
        partners = _partners(circuit.interaction_pairs(), device.num_qubits)
        before = placement_cost(circuit, device, placement)
        for a in range(device.num_qubits):
            for b in range(device.num_qubits):
                if a == b:
                    continue
                delta = _exchange_delta(
                    partners, device.distance_matrix,
                    placement._p2h, placement._h2p, a, b,
                )
                placement.apply_swap(a, b)
                after = placement_cost(circuit, device, placement)
                placement.apply_swap(a, b)
                assert delta == after - before


class TestClimbMatchesResum:
    @given(instances())
    @settings(**_SETTINGS)
    def test_assignment_identical(self, instance):
        circuit, device = instance
        assert (
            assignment_placement(circuit, device).prog_to_phys()
            == resum_assignment(circuit, device).prog_to_phys()
        )

    @given(instances(), st.integers(min_value=0, max_value=2**16),
           st.integers(min_value=0, max_value=300))
    @settings(**_SETTINGS)
    def test_annealing_identical(self, instance, seed, steps):
        circuit, device = instance
        assert (
            annealing_placement(circuit, device, seed=seed, steps=steps).prog_to_phys()
            == resum_annealing(circuit, device, seed, steps).prog_to_phys()
        )

    def test_unreachable_qubit_example(self):
        # Qubit 4 has no edges: distances to it are the sentinel 25.
        device = Device("split", 5, [(0, 1), (1, 2), (2, 3)], ["cnot"])
        assert device.distance(0, 4) == 25
        circuit = Circuit(5)
        for a, b in [(0, 4), (1, 4), (2, 3), (0, 3), (0, 4)]:
            circuit.cnot(a, b)
        assert (
            assignment_placement(circuit, device).prog_to_phys()
            == resum_assignment(circuit, device).prog_to_phys()
        )
