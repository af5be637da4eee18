"""Unit tests for repro.mapping.placement."""

import pytest

from repro.core import Circuit
from repro.devices import grid_device, ibm_qx5, linear_device
from repro.mapping.placement import (
    FREE,
    PLACERS,
    Placement,
    assignment_placement,
    exhaustive_placement,
    get_placer,
    greedy_placement,
    noise_aware_placement,
    placement_cost,
    random_placement,
    routed_placement,
    trivial_placement,
)
from repro.mapping.routing import route_reliability
from repro.sim.noise import NoiseModel
from repro.workloads import random_circuit


class TestPlacementObject:
    def test_trivial(self):
        placement = Placement.trivial(4, 2)
        assert placement.phys(0) == 0
        assert placement.prog(3) == FREE  # dummy slot
        assert placement.prog(1) == 1

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Placement([0, 0, 1])

    def test_rejects_bad_num_program(self):
        with pytest.raises(ValueError):
            Placement([0, 1], num_program=3)

    def test_from_partial(self):
        placement = Placement.from_partial({0: 3, 1: 1}, 2, 4)
        assert placement.phys(0) == 3
        assert placement.phys(1) == 1
        # Dummies fill the remaining physical qubits.
        assert sorted(placement.prog_to_phys()) == [0, 1, 2, 3]

    def test_from_partial_requires_full_cover(self):
        with pytest.raises(ValueError):
            Placement.from_partial({0: 1}, 2, 3)

    def test_from_partial_requires_injective(self):
        with pytest.raises(ValueError):
            Placement.from_partial({0: 1, 1: 1}, 2, 3)

    def test_apply_swap(self):
        placement = Placement.trivial(3, 3)
        placement.apply_swap(0, 2)
        assert placement.phys(0) == 2
        assert placement.phys(2) == 0
        assert placement.prog(2) == 0

    def test_swap_involving_free_qubit(self):
        placement = Placement.trivial(3, 2)
        placement.apply_swap(1, 2)
        assert placement.phys(1) == 2
        assert placement.prog(1) == FREE

    def test_phys_to_prog_is_papers_array(self):
        placement = Placement.from_partial({0: 2, 1: 0}, 2, 3)
        assert placement.phys_to_prog() == [1, FREE, 0]

    def test_copy_independent(self):
        a = Placement.trivial(3)
        b = a.copy()
        b.apply_swap(0, 1)
        assert a.phys(0) == 0 and b.phys(0) == 1

    def test_key_hashable(self):
        assert Placement.trivial(3).key() == (0, 1, 2)

    def test_permutation_to(self):
        initial = Placement.trivial(3)
        final = initial.copy()
        final.apply_swap(0, 1)
        sigma = initial.permutation_to(final)
        # State initially on physical 0 ends on physical 1.
        assert sigma == [1, 0, 2]

    def test_permutation_to_size_mismatch(self):
        with pytest.raises(ValueError):
            Placement.trivial(2).permutation_to(Placement.trivial(3))

    def test_equality_and_repr(self):
        assert Placement.trivial(3) == Placement.trivial(3)
        assert "q0->Q0" in repr(Placement.trivial(2))


class TestPlacementCost:
    def test_zero_when_all_adjacent(self):
        device = linear_device(3)
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2)
        assert placement_cost(circuit, device, Placement.trivial(3)) == 0

    def test_counts_excess_distance_weighted(self):
        device = linear_device(4)
        circuit = Circuit(4).cnot(0, 3).cnot(0, 3)
        # distance 3, excess 2, weight 2 -> 4.
        assert placement_cost(circuit, device, Placement.trivial(4)) == 4


class TestStrategies:
    def _stress(self):
        # A star interaction graph: qubit 0 talks to everyone.
        circuit = Circuit(4)
        for q in (1, 2, 3):
            circuit.cnot(0, q)
            circuit.cnot(0, q)
        return circuit

    def test_trivial(self):
        device = linear_device(5)
        placement = trivial_placement(Circuit(3), device)
        assert placement.phys(0) == 0 and placement.num_program == 3

    def test_fit_check(self):
        with pytest.raises(ValueError):
            trivial_placement(Circuit(6), linear_device(5))

    def test_random_is_seeded(self):
        device = linear_device(5)
        circuit = self._stress()
        a = random_placement(circuit, device, seed=3)
        b = random_placement(circuit, device, seed=3)
        assert a == b

    def test_greedy_centres_star_hub(self):
        device = linear_device(5)
        placement = greedy_placement(self._stress(), device)
        # The hub should not land on a chain endpoint.
        assert placement.phys(0) in (1, 2, 3)

    def test_assignment_not_worse_than_greedy(self):
        device = grid_device(3, 3)
        circuit = self._stress()
        greedy_cost = placement_cost(circuit, device, greedy_placement(circuit, device))
        assignment_cost = placement_cost(
            circuit, device, assignment_placement(circuit, device)
        )
        assert assignment_cost <= greedy_cost

    def test_exhaustive_is_optimal(self):
        device = linear_device(4)
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(0, 2)
        best = exhaustive_placement(circuit, device)
        best_cost = placement_cost(circuit, device, best)
        # Verify against assignment (upper bound) and the theoretical
        # minimum for a triangle on a line (one pair must be distance 2).
        assert best_cost == 1

    def test_exhaustive_guards_search_space(self):
        with pytest.raises(ValueError):
            exhaustive_placement(Circuit(9).cnot(0, 1), grid_device(4, 4))

    def test_annealing_seeded_and_competitive(self):
        from repro.mapping.placement import annealing_placement

        device = grid_device(3, 3)
        circuit = self._stress()
        a = annealing_placement(circuit, device, seed=5)
        b = annealing_placement(circuit, device, seed=5)
        assert a == b  # deterministic given the seed
        annealed = placement_cost(circuit, device, a)
        greedy_cost = placement_cost(
            circuit, device, greedy_placement(circuit, device)
        )
        assert annealed <= greedy_cost  # starts from greedy, never worse

    def test_annealing_zero_steps_returns_greedy(self):
        from repro.mapping.placement import annealing_placement

        device = linear_device(4)
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2)
        placement = annealing_placement(circuit, device, steps=0)
        assert placement_cost(circuit, device, placement) == placement_cost(
            circuit, device, greedy_placement(circuit, device)
        )

    def test_routed_placement_at_least_as_good(self):
        from repro.mapping.routing import route

        device = grid_device(3, 3)
        circuit = Circuit(4).cnot(0, 1).cnot(1, 2).cnot(2, 3).cnot(3, 0).cnot(0, 2)
        base = route(circuit, device, "sabre", assignment_placement(circuit, device))
        tuned = route(circuit, device, "sabre", routed_placement(circuit, device))
        assert tuned.added_swaps <= base.added_swaps

    def test_registry(self):
        assert set(PLACERS) == {
            "trivial", "random", "greedy", "assignment", "annealing",
            "spectral", "routed", "exhaustive",
        }
        assert get_placer("greedy") is greedy_placement
        with pytest.raises(KeyError):
            get_placer("magic")


def test_noise_aware_placer_shares_the_reliability_table(monkeypatch):
    # The placer and the reliability router read one weighted-distance
    # table per device and edge errors: all-pairs Dijkstra runs once.
    calls = []
    compute = NoiseModel.weighted_distance_matrix

    def counted(self, device):
        calls.append(device)
        return compute(self, device)

    monkeypatch.setattr(NoiseModel, "weighted_distance_matrix", counted)
    device = ibm_qx5()
    noise = NoiseModel.with_random_edge_errors(device, seed=3)
    circuit = random_circuit(6, 30, seed=1, two_qubit_fraction=0.6)
    first = noise_aware_placement(circuit, device, noise)
    route_reliability(circuit, device, first, noise=noise)
    assert noise_aware_placement(circuit, device, noise) == first
    assert len(calls) == 1
