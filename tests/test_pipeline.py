"""Integration tests for the full compilation pipeline (Fig. 2 flow)."""

import pytest

from repro.core import Circuit
from repro.core.pipeline import compile_circuit
from repro.core.snapshot import placement_to_obj
from repro.devices import get_device
from repro.mapping.placement import Placement
from repro.verify import equivalent_mapped
from repro.workloads import ghz, qft, random_circuit

DEVICES = ["ibm_qx4", "surface17", "surface7"]
ROUTERS = ["naive", "sabre", "astar", "latency"]


class TestEndToEnd:
    @pytest.mark.parametrize("device_name", DEVICES)
    @pytest.mark.parametrize("router", ROUTERS)
    def test_random_circuits_conform_and_stay_equivalent(self, device_name, router):
        device = get_device(device_name)
        n = min(device.num_qubits, 5)
        circuit = random_circuit(n, 14, seed=hash((device_name, router)) % 1000)
        result = compile_circuit(circuit, device, router=router, placer="greedy")
        assert device.conforms(result.native), device.validate_circuit(result.native)[:3]
        assert equivalent_mapped(
            circuit, result.native, result.routed.initial, result.routed.final
        )

    def test_multi_qubit_gates_are_predecomposed(self, qx4):
        circuit = Circuit(3).toffoli(0, 1, 2)
        result = compile_circuit(circuit, qx4)
        assert qx4.conforms(result.native)
        assert equivalent_mapped(
            circuit, result.native, result.routed.initial, result.routed.final
        )

    def test_qft_compiles_everywhere(self):
        circuit = qft(4)
        for device_name in DEVICES:
            device = get_device(device_name)
            result = compile_circuit(circuit, device, placer="greedy", router="sabre")
            assert device.conforms(result.native)


class TestOptions:
    def test_decompose_false_keeps_swaps(self, s17, ghz3):
        result = compile_circuit(ghz3, s17, decompose=False, schedule=None)
        assert result.native is result.routed.circuit

    def test_schedule_none(self, s17, ghz3):
        result = compile_circuit(ghz3, s17, schedule=None)
        assert result.schedule is None
        assert result.latency == 0

    def test_schedule_modes(self, s17, ghz3):
        asap = compile_circuit(ghz3, s17, schedule="asap")
        alap = compile_circuit(ghz3, s17, schedule="alap")
        constrained = compile_circuit(ghz3, s17, schedule="constraints")
        assert asap.latency == alap.latency
        assert constrained.latency >= asap.latency

    def test_unknown_schedule_mode(self, s17, ghz3):
        with pytest.raises(ValueError):
            compile_circuit(ghz3, s17, schedule="magic")

    def test_callable_placer(self, s17, ghz3):
        from repro.mapping.placement import trivial_placement

        result = compile_circuit(ghz3, s17, placer=trivial_placement)
        assert result.placer == "trivial_placement"

    def test_router_options_forwarded(self, s17, ghz3):
        result = compile_circuit(
            ghz3, s17, router="sabre", router_options={"lookahead": 3}
        )
        assert result.routed.metadata["lookahead"] == 3

    def test_control_constraints_flag(self, s17):
        circuit = ghz(4)
        on = compile_circuit(circuit, s17, schedule="constraints")
        off = compile_circuit(
            circuit, s17, schedule="constraints", control_constraints=False
        )
        assert on.latency >= off.latency


class TestPlacerValidation:
    """Every placer result is checked before routing sees it."""

    # name -> (placer result on Surface-17, message fragment)
    BAD = {
        "too_few_program": (
            lambda: Placement.trivial(17, 3), "17 physical / 3 program"),
        "too_few_slots": (
            lambda: Placement.trivial(5), "5 physical / 5 program"),
        "too_many_slots": (
            lambda: Placement.trivial(20, 5), "20 physical / 5 program"),
        "plain_list": (lambda: list(range(17)), "a list of length 17"),
    }

    @pytest.mark.parametrize("router", ["sabre", "astar", "naive"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_callable_placer_rejected(self, s17, case, router):
        make, fragment = self.BAD[case]

        def broken_placer(circuit, device):
            return make()

        circuit = random_circuit(5, 20, seed=1, two_qubit_fraction=0.6)
        with pytest.raises(ValueError) as info:
            compile_circuit(circuit, s17, placer=broken_placer, router=router)
        message = str(info.value)
        assert "'broken_placer'" in message
        assert fragment in message
        assert "expected a Placement of 17 physical / 5 program" in message

    def test_bad_stage_cached_placement_rejected(self, s17):
        class Store:
            def load(self, stage, inputs, config):
                if stage == "placement":
                    return {"placement": placement_to_obj(Placement.trivial(5)),
                            "placer": "assignment"}
                return None

            def store(self, stage, inputs, config, entry):
                raise AssertionError("nothing may be stored")

        circuit = random_circuit(5, 20, seed=1, two_qubit_fraction=0.6)
        with pytest.raises(ValueError, match="placer 'assignment' returned "
                           "a Placement of 5 physical / 5 program"):
            compile_circuit(circuit, s17, stage_store=Store())

    def test_good_placements_pass(self, s17):
        circuit = random_circuit(5, 20, seed=1, two_qubit_fraction=0.6)
        result = compile_circuit(
            circuit, s17, placer=lambda c, d: Placement.trivial(17, 5)
        )
        assert result.routed.initial.num_program == 5


class TestResultMetrics:
    def test_summary_text(self, qx4, ghz3):
        result = compile_circuit(ghz3, qx4)
        text = result.summary()
        assert "ibm_qx4" in text and "SWAP" in text

    def test_gate_overhead_nonnegative_after_lowering(self, qx4):
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2)
        result = compile_circuit(circuit, qx4, placer="trivial")
        assert result.gate_overhead >= 0

    def test_depth_ratio(self, qx4, ghz3):
        result = compile_circuit(ghz3, qx4)
        assert result.depth_ratio > 0

    def test_added_swaps_matches_routed(self, s17):
        circuit = random_circuit(5, 15, seed=9)
        result = compile_circuit(circuit, s17, placer="trivial", router="naive")
        assert result.added_swaps == result.routed.added_swaps

    def test_measured_circuit_compiles(self, s17):
        circuit = Circuit(3).h(0).cnot(0, 1).measure_all()
        result = compile_circuit(circuit, s17, schedule="constraints")
        assert result.native.count("measure") == 3
        assert result.schedule.validate() == []
