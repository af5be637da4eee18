"""Unit tests for repro.core.circuit."""

import pytest

from repro.core import Circuit
from repro.core import gates as G


class TestConstruction:
    def test_empty(self):
        circuit = Circuit(3)
        assert len(circuit) == 0
        assert circuit.num_qubits == 3
        assert circuit.depth() == 0

    def test_negative_qubits_rejected(self):
        with pytest.raises(ValueError):
            Circuit(-1)

    def test_append_validates_bounds(self):
        circuit = Circuit(2)
        with pytest.raises(ValueError):
            circuit.h(2)

    def test_append_validates_condition_bit(self):
        # Regression: a condition on bit 5 of a two-qubit circuit was
        # accepted, though no qubit line carries that bit.
        circuit = Circuit(2)
        with pytest.raises(ValueError, match="conditioned on bit 5"):
            circuit.append(G.Gate("x", (0,), condition=(5, 1)))
        circuit.append(G.Gate("x", (0,), condition=(1, 1)))
        assert len(circuit) == 1

    def test_builder_chaining(self):
        circuit = Circuit(2).h(0).cnot(0, 1).measure(1)
        assert [g.name for g in circuit] == ["h", "cnot", "measure"]

    def test_builders_cover_common_gates(self):
        circuit = Circuit(3)
        circuit.x(0).y(0).z(0).s(0).sdg(0).t(0).tdg(0).i(0)
        circuit.rx(0.1, 0).ry(0.2, 1).rz(0.3, 2).u(0.1, 0.2, 0.3, 0)
        circuit.cx(0, 1).cz(1, 2).cp(0.5, 0, 2).swap(0, 1)
        circuit.toffoli(0, 1, 2).fredkin(2, 0, 1).barrier()
        assert circuit.size() == 18  # barrier excluded

    def test_from_pairs(self):
        circuit = Circuit.from_pairs(3, [(0, 1), (1, 2)], gate="cz")
        assert [g.name for g in circuit] == ["cz", "cz"]

    def test_measure_all(self):
        circuit = Circuit(3).measure_all()
        assert circuit.count("measure") == 3

    def test_copy_is_independent(self):
        a = Circuit(2).h(0)
        b = a.copy()
        b.x(1)
        assert len(a) == 1 and len(b) == 2

    def test_equality(self):
        assert Circuit(2).h(0) == Circuit(2).h(0)
        assert Circuit(2).h(0) != Circuit(2).h(1)
        assert Circuit(2) != Circuit(3)


class TestAnalysis:
    def test_depth_sequential_on_one_qubit(self):
        circuit = Circuit(1).h(0).t(0).h(0)
        assert circuit.depth() == 3

    def test_depth_parallel_gates(self):
        circuit = Circuit(2).h(0).h(1)
        assert circuit.depth() == 1

    def test_depth_cnot_couples_lines(self):
        circuit = Circuit(2).h(0).cnot(0, 1).h(1)
        assert circuit.depth() == 3

    def test_two_qubit_depth_ignores_single_qubit_gates(self):
        circuit = Circuit(2).h(0).h(1).cnot(0, 1).h(0)
        assert circuit.depth(count_single_qubit=False) == 1

    def test_barrier_synchronises_depth(self):
        free = Circuit(2).h(0).barrier().h(1)
        assert free.depth() == 2  # barrier forces h(1) after h(0)

    def test_moments_partition_all_gates(self):
        circuit = Circuit(3).h(0).h(1).cnot(0, 1).cnot(1, 2).h(0)
        moments = circuit.moments()
        assert sum(len(m) for m in moments) == 5
        assert {g.name for g in moments[0]} == {"h"}
        assert len(moments) == circuit.depth()

    def test_gate_counts(self):
        circuit = Circuit(2).h(0).h(1).cnot(0, 1).barrier()
        counts = circuit.gate_counts()
        assert counts["h"] == 2 and counts["cnot"] == 1
        assert "barrier" not in counts

    def test_count_resolves_aliases(self):
        circuit = Circuit(2).cnot(0, 1)
        assert circuit.count("cx") == 1

    def test_two_qubit_helpers(self, ghz3):
        assert ghz3.num_two_qubit_gates() == 2
        assert [g.qubits for g in ghz3.two_qubit_gates()] == [(0, 1), (1, 2)]

    def test_used_qubits(self):
        circuit = Circuit(5).h(1).cnot(1, 3)
        assert circuit.used_qubits() == {1, 3}

    def test_interaction_pairs_unordered(self):
        circuit = Circuit(3).cnot(0, 1).cnot(1, 0).cz(2, 1)
        pairs = circuit.interaction_pairs()
        assert pairs[(0, 1)] == 2
        assert pairs[(1, 2)] == 1


class TestTransformation:
    def test_remap_qubits(self, ghz3):
        remapped = ghz3.remap_qubits({0: 2, 1: 0, 2: 1})
        assert remapped.gates[1].qubits == (2, 0)

    def test_remap_grows_circuit_when_needed(self, bell):
        remapped = bell.remap_qubits({0: 5, 1: 1})
        assert remapped.num_qubits == 6

    def test_remap_rejects_non_injective(self, bell):
        with pytest.raises(ValueError):
            bell.remap_qubits({0: 1, 1: 1})

    def test_inverse_reverses_and_inverts(self):
        circuit = Circuit(2).h(0).t(0).cnot(0, 1)
        inverse = circuit.inverse()
        assert [g.name for g in inverse] == ["cnot", "tdg", "h"]

    def test_inverse_of_measurement_raises(self):
        with pytest.raises(ValueError):
            Circuit(1).measure(0).inverse()

    def test_without(self):
        circuit = Circuit(2).h(0).cnot(0, 1).h(1)
        assert circuit.without("h").size() == 1

    def test_only_two_qubit_matches_paper_fig1b(self):
        circuit = Circuit(2).h(0).cnot(0, 1).t(1).cnot(1, 0)
        skeleton = circuit.only_two_qubit()
        assert all(g.is_two_qubit for g in skeleton)
        assert skeleton.size() == 2

    def test_compose(self, bell, ghz3):
        combined = bell.compose(ghz3)
        assert combined.num_qubits == 3
        assert combined.size() == bell.size() + ghz3.size()

    def test_repr_mentions_counts(self, bell):
        text = repr(bell)
        assert "qubits=2" in text and "gates=2" in text
