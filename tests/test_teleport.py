"""Tests for teleportation-based routing (paper footnote 4)."""

import numpy as np
import pytest

from repro.core import Circuit
from repro.core.gates import Gate
from repro.devices import grid_device, linear_device
from repro.mapping.placement import Placement
from repro.mapping.routing import route, route_naive, route_teleport
from repro.mapping.scheduler import asap_schedule
from repro.sim import StateVector, simulate
from repro.verify import (
    data_qubit_fidelity,
    equivalent_mapped_with_feedforward,
)


def _far_pair_on_line(length):
    device = linear_device(length)
    circuit = Circuit(2).h(0).cnot(0, 1)
    placement = Placement.from_partial({0: 0, 1: length - 1}, 2, length)
    return device, circuit, placement


class TestConditionalGates:
    def test_condition_skips_when_unsatisfied(self):
        sv = StateVector(2)
        sv.apply(Gate("measure", (0,)))  # outcome 0
        sv.apply(Gate("x", (1,), condition=(0, 1)))
        assert np.allclose(sv.state, [1, 0, 0, 0])

    def test_condition_fires_when_satisfied(self):
        sv = StateVector(2)
        sv.apply(Gate("x", (0,)))
        sv.apply(Gate("measure", (0,)))
        sv.apply(Gate("x", (1,), condition=(0, 1)))
        assert np.allclose(np.abs(sv.state), [0, 0, 0, 1])

    def test_condition_on_unmeasured_bit_raises(self):
        sv = StateVector(1)
        with pytest.raises(RuntimeError):
            sv.apply(Gate("x", (0,), condition=(0, 1)))

    def test_condition_validation(self):
        with pytest.raises(ValueError):
            Gate("x", (0,), condition=(0, 2))
        with pytest.raises(ValueError):
            Gate("measure", (0,), condition=(0, 1))

    def test_conditioned_gate_not_invertible(self):
        with pytest.raises(ValueError):
            Gate("x", (0,), condition=(1, 1)).inverse()

    def test_unitary_builder_rejects_conditions(self):
        from repro.sim import circuit_unitary

        circuit = Circuit(2, [Gate("x", (0,), condition=(1, 0))])
        with pytest.raises(ValueError):
            circuit_unitary(circuit)

    def test_dag_orders_condition_after_measure(self):
        from repro.core import DependencyGraph

        circuit = Circuit(2)
        circuit.measure(0)
        circuit.append(Gate("x", (1,), condition=(0, 1)))
        dag = DependencyGraph(circuit)
        assert dag.predecessors(1) == [0]

    def test_remap_carries_condition(self):
        gate = Gate("x", (1,), condition=(0, 1))
        remapped = gate.remap({0: 5, 1: 3})
        assert remapped.qubits == (3,)
        assert remapped.condition == (5, 1)


class TestTeleportProtocol:
    def test_teleports_far_pair(self):
        device, circuit, placement = _far_pair_on_line(6)
        result = route_teleport(circuit, device, placement)
        assert result.metadata["teleports"] == 1
        assert equivalent_mapped_with_feedforward(
            circuit, result.circuit, result.initial, result.final
        )

    def test_contains_measurements_and_conditions(self):
        device, circuit, placement = _far_pair_on_line(6)
        result = route_teleport(circuit, device, placement)
        assert result.circuit.count("measure") == 2
        assert sum(1 for g in result.circuit if g.condition) == 2

    def test_short_distance_falls_back_to_swaps(self):
        device = linear_device(3)
        circuit = Circuit(3).cnot(0, 2)
        result = route_teleport(circuit, device)
        assert result.metadata["teleports"] == 0
        assert result.metadata["swaps"] == 1

    def test_no_free_qubits_falls_back(self):
        device = linear_device(5)
        circuit = Circuit(5).cnot(0, 4)  # all sites occupied
        result = route_teleport(circuit, device)
        assert result.metadata["teleports"] == 0
        assert result.metadata["swaps"] > 0

    def test_final_placement_tracks_move(self):
        device, circuit, placement = _far_pair_on_line(6)
        result = route_teleport(circuit, device, placement)
        moved = [result.final.phys(q) for q in range(2)]
        assert device.connected(*moved)

    def test_multiple_teleports_recycle_ancillas(self):
        device = linear_device(7)
        circuit = Circuit(2).cnot(0, 1).h(0).cnot(0, 1)
        placement = Placement.from_partial({0: 0, 1: 6}, 2, 7)
        result = route_teleport(circuit, device, placement)
        assert result.metadata["teleports"] >= 1
        assert equivalent_mapped_with_feedforward(
            circuit, result.circuit, result.initial, result.final
        )

    def test_on_grid_with_free_corridor(self):
        device = grid_device(3, 4)
        circuit = Circuit(2).h(0).cnot(0, 1).t(1)
        placement = Placement.from_partial({0: 0, 1: 11}, 2, 12)
        result = route_teleport(circuit, device, placement)
        assert result.metadata["teleports"] == 1
        assert equivalent_mapped_with_feedforward(
            circuit, result.circuit, result.initial, result.final
        )

    def test_registered_in_dispatcher(self):
        device, circuit, placement = _far_pair_on_line(5)
        result = route(circuit, device, "teleport", placement)
        assert result.router == "teleport"


class TestRelaxedTimeConstraints:
    def test_epr_distribution_overlaps_with_computation(self):
        """The paper's point: distribution swaps touch only free qubits,
        so ASAP scheduling overlaps them with the data qubits' earlier
        gates — teleport latency beats swap-chain latency when the data
        qubit is busy beforehand."""
        length = 8
        device = linear_device(length)
        circuit = Circuit(2)
        for _ in range(12):  # busy prologue on both program qubits
            circuit.t(0).t(1)
        circuit.cnot(0, 1)
        placement = Placement.from_partial({0: 0, 1: length - 1}, 2, length)

        swap_latency = asap_schedule(
            route_naive(circuit, device, placement).circuit, device
        ).latency
        teleport_result = route_teleport(circuit, device, placement)
        teleport_latency = asap_schedule(teleport_result.circuit, device).latency
        assert teleport_latency < swap_latency


class TestDecompositionWithConditions:
    def test_condition_propagates_through_rules(self):
        from repro.decompose import decompose_circuit
        from repro.devices import surface17

        circuit = Circuit(2)
        circuit.measure(0)
        circuit.append(Gate("z", (1,), condition=(0, 1)))
        lowered = decompose_circuit(circuit, surface17())
        conditioned = [g for g in lowered if g.is_unitary]
        assert conditioned  # z expands to x, y on the surface basis
        assert all(g.condition == (0, 1) for g in conditioned)

    def test_native_conditioned_gate_untouched(self, qx4):
        from repro.decompose import decompose_circuit

        circuit = Circuit(2)
        circuit.measure(0)
        circuit.append(Gate("rx", (1,), (0.5,), condition=(0, 1)))
        lowered = decompose_circuit(circuit, qx4)
        assert lowered.gates[1].condition == (0, 1)

    def test_teleported_circuit_fully_lowers(self):
        from repro.decompose import decompose_circuit

        device = linear_device(6)
        circuit = Circuit(2).h(0).cnot(0, 1)
        placement = Placement.from_partial({0: 0, 1: 5}, 2, 6)
        result = route_teleport(circuit, device, placement)
        native = decompose_circuit(result.circuit, device)
        assert device.conforms(native)
        assert equivalent_mapped_with_feedforward(
            circuit, native, result.initial, result.final
        )


class TestOptimizedTeleportKeepsCorrections:
    """``optimize=True`` keeps the conditioned corrections of teleport."""

    @pytest.mark.parametrize("device", ["linear9", "grid3x3", "ibm_qx5"])
    def test_same_conditioned_gates_and_equivalent(self, device):
        from repro.core.pipeline import compile_circuit
        from repro.devices import ibm_qx5

        device = {
            "linear9": lambda: linear_device(9),
            "grid3x3": lambda: grid_device(3, 3),
            "ibm_qx5": ibm_qx5,
        }[device]()
        circuit = Circuit(2).h(0).cnot(0, 1).rz(0.4, 1).cnot(0, 1).ry(0.7, 0)

        def far_apart(circuit, device):
            return Placement.from_partial({0: 0, 1: 8}, 2, device.num_qubits)

        results = {
            optimize: compile_circuit(
                circuit, device, placer=far_apart, router="teleport",
                optimize=optimize,
            )
            for optimize in (False, True)
        }
        conditioned = {
            optimize: [g for g in result.native if g.condition is not None]
            for optimize, result in results.items()
        }
        assert len(conditioned[False]) == 2
        assert conditioned[True] == conditioned[False]
        for result in results.values():
            assert equivalent_mapped_with_feedforward(
                circuit, result.native, result.routed.initial,
                result.routed.final,
            )


class TestDataQubitFidelity:
    def test_perfect_match(self):
        state = simulate(Circuit(2).h(0))
        expected = simulate(Circuit(1).h(0))
        assert data_qubit_fidelity(state, [0], expected) == pytest.approx(1.0)

    def test_mismatch_detected(self):
        state = simulate(Circuit(2).x(0))
        expected = simulate(Circuit(1))  # |0>
        assert data_qubit_fidelity(state, [0], expected) == pytest.approx(0.0)

    def test_entangled_data_register(self):
        state = simulate(Circuit(3).h(1).cnot(1, 2))
        expected = simulate(Circuit(2).h(0).cnot(0, 1))
        assert data_qubit_fidelity(state, [1, 2], expected) == pytest.approx(1.0)

    def test_checker_rejects_wrong_mapping(self):
        device, circuit, placement = _far_pair_on_line(6)
        result = route_teleport(circuit, device, placement)
        broken = result.circuit.copy()
        broken.x(result.final.phys(0))
        assert not equivalent_mapped_with_feedforward(
            circuit, broken, result.initial, result.final
        )
