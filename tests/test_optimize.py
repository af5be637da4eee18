"""Tests for the peephole optimisation passes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.core.gates import Gate
from repro.optimize import (
    cancel_inverse_pairs,
    fuse_single_qubit_runs,
    merge_rotations,
    optimize_circuit,
    remove_identities,
)
from repro.verify import equivalent_circuits


class TestCancelInversePairs:
    def test_adjacent_hadamards_cancel(self):
        circuit = Circuit(1).h(0).h(0)
        assert cancel_inverse_pairs(circuit).size() == 0

    def test_adjacent_cnots_cancel(self):
        circuit = Circuit(2).cnot(0, 1).cnot(0, 1)
        assert cancel_inverse_pairs(circuit).size() == 0

    def test_t_tdg_cancel(self):
        circuit = Circuit(1).t(0).tdg(0)
        assert cancel_inverse_pairs(circuit).size() == 0

    def test_reversed_cnot_does_not_cancel(self):
        circuit = Circuit(2).cnot(0, 1).cnot(1, 0)
        assert cancel_inverse_pairs(circuit).size() == 2

    def test_reversed_cz_cancels(self):
        circuit = Circuit(2).cz(0, 1).cz(1, 0)
        assert cancel_inverse_pairs(circuit).size() == 0

    def test_cancellation_through_unrelated_gates(self):
        circuit = Circuit(3).h(0).x(1).t(2).h(0)
        optimised = cancel_inverse_pairs(circuit)
        assert optimised.count("h") == 0
        assert optimised.size() == 2

    def test_blocked_by_intervening_gate_on_same_qubit(self):
        circuit = Circuit(1).h(0).t(0).h(0)
        assert cancel_inverse_pairs(circuit).size() == 3

    def test_blocked_by_partial_overlap(self):
        circuit = Circuit(2).cnot(0, 1).t(1).cnot(0, 1)
        assert cancel_inverse_pairs(circuit).size() == 3

    def test_barrier_blocks(self):
        circuit = Circuit(1).h(0).barrier().h(0)
        assert cancel_inverse_pairs(circuit).count("h") == 2

    def test_cascading_needs_fixed_point(self):
        # h t tdg h: one sweep kills t/tdg, the next kills h/h.
        circuit = Circuit(1).h(0).t(0).tdg(0).h(0)
        assert optimize_circuit(circuit).size() == 0

    def test_rotation_with_negated_angle_cancels(self):
        circuit = Circuit(1).rx(0.7, 0).rx(-0.7, 0)
        assert optimize_circuit(circuit).size() == 0


class TestMergeRotations:
    def test_same_axis_merge(self):
        circuit = Circuit(1).rz(0.3, 0).rz(0.4, 0)
        merged = merge_rotations(circuit)
        assert merged.size() == 1
        assert merged.gates[0].params[0] == pytest.approx(0.7)

    def test_long_chain_merges(self):
        circuit = Circuit(1)
        for _ in range(5):
            circuit.rx(0.2, 0)
        merged = merge_rotations(circuit)
        assert merged.size() == 1
        assert merged.gates[0].params[0] == pytest.approx(1.0)

    def test_full_turn_vanishes(self):
        circuit = Circuit(1).rz(2 * math.pi, 0).rz(2 * math.pi, 0)
        assert merge_rotations(circuit).size() == 0

    def test_different_axes_do_not_merge(self):
        circuit = Circuit(1).rx(0.3, 0).ry(0.3, 0)
        assert merge_rotations(circuit).size() == 2

    def test_blocked_by_two_qubit_gate(self):
        circuit = Circuit(2).rz(0.3, 0).cnot(0, 1).rz(0.4, 0)
        assert merge_rotations(circuit).size() == 3

    def test_controlled_phase_merges_symmetrically(self):
        circuit = Circuit(2).cp(0.3, 0, 1).cp(0.4, 1, 0)
        merged = merge_rotations(circuit)
        assert merged.size() == 1
        assert merged.gates[0].params[0] == pytest.approx(0.7)

    def test_crz_requires_same_orientation(self):
        from repro.core.gates import Gate

        circuit = Circuit(2, [Gate("crz", (0, 1), (0.3,)), Gate("crz", (1, 0), (0.4,))])
        assert merge_rotations(circuit).size() == 2


class TestFuseSingleQubitRuns:
    def test_run_becomes_single_u(self):
        circuit = Circuit(1).h(0).t(0).h(0).s(0)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.size() == 1
        assert fused.gates[0].name == "u"
        assert equivalent_circuits(circuit, fused)

    def test_identity_run_vanishes(self):
        circuit = Circuit(1).h(0).h(0)
        assert fuse_single_qubit_runs(circuit).size() == 0

    def test_runs_split_by_two_qubit_gates(self):
        circuit = Circuit(2).h(0).t(0).cnot(0, 1).s(0).h(0)
        fused = fuse_single_qubit_runs(circuit)
        assert fused.count("u") == 2
        assert fused.count("cnot") == 1
        assert equivalent_circuits(circuit, fused)

    def test_zyz_emission(self):
        circuit = Circuit(1).h(0).t(0)
        fused = fuse_single_qubit_runs(circuit, emit="zyz")
        assert {g.name for g in fused} <= {"rz", "ry"}
        assert equivalent_circuits(circuit, fused)

    def test_measure_flushes_run(self):
        circuit = Circuit(1).h(0).measure(0)
        fused = fuse_single_qubit_runs(circuit)
        assert [g.name for g in fused] == ["u", "measure"]

    def test_unknown_emit_mode(self):
        with pytest.raises(ValueError):
            fuse_single_qubit_runs(Circuit(1), emit="xyz")

    def test_non_unitary_run_raises(self):
        circuit = Circuit(1).h(0).rz(float("nan"), 0)
        with pytest.raises(ValueError, match="not unitary"):
            fuse_single_qubit_runs(circuit)


class TestClassicalConditions:
    """A conditioned gate never joins a cancel, merge or fusion."""

    def test_conditioned_rz_survives_merge(self):
        circuit = Circuit(2).measure(1).rz(0.3, 0)
        circuit.append(Gate("rz", (0,), (0.4,), condition=(1, 1)))
        merged = merge_rotations(circuit)
        assert merged.gates == circuit.gates

    def test_conditioned_rotation_does_not_start_a_merge(self):
        circuit = Circuit(2).measure(1)
        circuit.append(Gate("rz", (0,), (0.4,), condition=(1, 1)))
        circuit.rz(0.3, 0).rz(0.2, 0)
        merged = merge_rotations(circuit)
        assert merged.gates[:2] == circuit.gates[:2]
        assert merged.gates[2] == Gate("rz", (0,), (0.3 + 0.2,))
        assert merged.size() == 3

    def test_conditioned_x_after_h_survives_fusion_unfused(self):
        circuit = Circuit(2).measure(1).h(0)
        conditioned = Gate("x", (0,), condition=(1, 1))
        circuit.append(conditioned)
        fused = fuse_single_qubit_runs(circuit)
        assert [g.name for g in fused] == ["measure", "u", "x"]
        assert fused.gates[-1] == conditioned

    def test_conditioned_gate_ends_the_run_on_its_condition_wire(self):
        circuit = Circuit(2).measure(1).h(1)
        circuit.append(Gate("x", (0,), condition=(1, 1)))
        circuit.h(1)
        fused = fuse_single_qubit_runs(circuit)
        # Without the flush, h.h on wire 1 would fuse into nothing.
        assert [(g.name, g.qubits) for g in fused] == [
            ("measure", (1,)), ("u", (1,)), ("x", (0,)), ("u", (1,)),
        ]
        assert fused.gates[2].condition == (1, 1)

    @pytest.mark.parametrize("name", ["x", "h", "cnot"])
    def test_cancel_never_pairs_a_conditioned_gate(self, name):
        qubits = (0, 1) if name == "cnot" else (0,)
        plain = Gate(name, qubits)
        conditioned = Gate(name, qubits, condition=(2, 1))
        for pair in ([plain, conditioned], [conditioned, plain],
                     [conditioned, conditioned]):
            circuit = Circuit(3, [Gate("measure", (2,)), *pair])
            assert cancel_inverse_pairs(circuit).gates == circuit.gates

    def test_optimize_keeps_every_condition(self):
        circuit = Circuit(2).measure(1).h(0).rz(0.2, 0)
        circuit.append(Gate("rz", (0,), (0.4,), condition=(1, 1)))
        circuit.append(Gate("x", (0,), condition=(1, 1)))
        circuit.h(0)
        optimised = optimize_circuit(circuit, fuse=True)
        assert [g.condition for g in optimised if g.condition] == [(1, 1), (1, 1)]


class TestRemoveIdentities:
    def test_drops_i_and_zero_rotations(self):
        circuit = Circuit(1).i(0).rz(0.0, 0).h(0)
        assert remove_identities(circuit).size() == 1

    def test_keeps_nontrivial(self):
        circuit = Circuit(1).rz(0.1, 0)
        assert remove_identities(circuit).size() == 1


class TestOptimizeCircuitDriver:
    def test_never_grows(self):
        from repro.workloads import random_circuit

        for seed in range(5):
            circuit = random_circuit(4, 30, seed=seed)
            assert optimize_circuit(circuit).size() <= circuit.size()

    def test_preserves_semantics_on_random_circuits(self):
        from repro.workloads import random_circuit

        for seed in range(8):
            circuit = random_circuit(4, 25, seed=seed)
            optimised = optimize_circuit(circuit)
            assert equivalent_circuits(circuit, optimised), seed

    def test_preserves_semantics_with_fusion(self):
        from repro.workloads import random_circuit

        for seed in range(5):
            circuit = random_circuit(4, 25, seed=seed, two_qubit_fraction=0.3)
            optimised = optimize_circuit(circuit, fuse=True)
            assert equivalent_circuits(circuit, optimised), seed

    def test_cleans_direction_flip_hadamards(self):
        """The classic post-mapping win: decomposition H meets flip H."""
        circuit = Circuit(2).h(0).h(1).cnot(1, 0).h(0).h(1).h(0).h(1).cnot(1, 0).h(0).h(1)
        optimised = optimize_circuit(circuit)
        assert optimised.size() == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_seeds(self, seed):
        from repro.workloads import random_circuit

        circuit = random_circuit(3, 15, seed=seed)
        optimised = optimize_circuit(circuit, fuse=True)
        assert equivalent_circuits(circuit, optimised)
        assert optimised.size() <= circuit.size()
