"""Tests for CNOT direction fixing (Section IV / VI-A)."""

import pytest

from repro.core import Circuit
from repro.devices import Device
from repro.mapping.direction import count_wrong_directions, fix_directions
from repro.verify import equivalent_circuits


def _directed_pair():
    return Device("d2", 2, [(0, 1)], ["u", "h", "cnot"], symmetric=False)


class TestCounting:
    def test_correct_direction_counts_zero(self):
        assert count_wrong_directions(Circuit(2).cnot(0, 1), _directed_pair()) == 0

    def test_wrong_direction_counted(self):
        assert count_wrong_directions(Circuit(2).cnot(1, 0), _directed_pair()) == 1

    def test_symmetric_device_never_wrong(self, s17):
        assert count_wrong_directions(Circuit(2).cnot(1, 0), s17) == 0

    def test_symmetric_gate_never_wrong(self):
        device = Device("d", 2, [(0, 1)], ["cz", "cnot"], symmetric=False)
        circuit = Circuit(2).cz(1, 0)
        assert count_wrong_directions(circuit, device) == 0


class TestFixing:
    def test_identity_on_symmetric_device(self, s17, bell):
        fixed, flips = fix_directions(bell, s17)
        assert flips == 0
        assert fixed == bell

    def test_flip_inserts_four_hadamards(self):
        device = _directed_pair()
        circuit = Circuit(2).cnot(1, 0)
        fixed, flips = fix_directions(circuit, device)
        assert flips == 1
        assert fixed.count("h") == 4
        assert fixed.count("cnot") == 1
        assert next(g for g in fixed if g.name == "cnot").qubits == (0, 1)

    def test_flip_preserves_semantics(self):
        device = _directed_pair()
        circuit = Circuit(2).h(0).cnot(1, 0).t(1)
        fixed, _ = fix_directions(circuit, device)
        assert equivalent_circuits(circuit, fixed)

    def test_result_has_no_wrong_directions(self, qx4):
        circuit = Circuit(5).cnot(0, 1).cnot(2, 3).cnot(3, 4)
        fixed, _ = fix_directions(circuit, qx4)
        assert count_wrong_directions(fixed, qx4) == 0

    def test_unconnected_pair_rejected(self, qx4):
        with pytest.raises(ValueError):
            fix_directions(Circuit(5).cnot(0, 4), qx4)

    def test_non_cnot_asymmetric_rejected(self):
        device = Device("d", 2, [(0, 1)], ["crz", "cnot"], symmetric=False)
        circuit = Circuit(2)
        from repro.core.gates import Gate

        circuit.append(Gate("crz", (1, 0), (0.5,)))
        with pytest.raises(ValueError):
            fix_directions(circuit, device)

    def test_flipped_conditioned_cnot_keeps_its_condition(self):
        # Regression: the reversed CNOT and its four Hadamards came out
        # unconditioned, so the CNOT fired on every shot.
        from repro.core.gates import Gate

        circuit = Circuit(2).h(1).measure(1)
        circuit.append(Gate("cnot", (1, 0), condition=(1, 1)))
        circuit.append(Gate("cnot", (1, 0), condition=(1, 0)))
        circuit.append(Gate("cnot", (1, 0)))
        fixed, flips = fix_directions(circuit, _directed_pair())
        assert flips == 3
        blocks = [fixed.gates[2 + 5 * k: 7 + 5 * k] for k in range(3)]
        for block, condition in zip(blocks, [(1, 1), (1, 0), None]):
            assert [(g.name, g.qubits) for g in block] == [
                ("h", (1,)), ("h", (0,)), ("cnot", (0, 1)), ("h", (1,)), ("h", (0,))
            ]
            assert {g.condition for g in block} == {condition}

    def test_flip_count_matches_counter(self, qx4):
        circuit = Circuit(5).cnot(0, 1).cnot(1, 0).cnot(0, 2).cnot(2, 0)
        wrong = count_wrong_directions(circuit, qx4)
        _, flips = fix_directions(circuit, qx4)
        assert flips == wrong == 2
