"""Tests for the resilience layer: deadlines, fault plans, fallback."""

import gc
import json
import time

import pytest

from repro.core import Circuit
from repro.core.pipeline import PassConfig, compile_with_config, fallback_chain
from repro.devices import get_device, grid_device
from repro.mapping.routing import (
    route_astar,
    route_latency,
    route_reliability,
    route_sabre,
)
from repro.mapping.routing._astar_native import kernel_stats, warm_kernel
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    corrupt_point,
    current_deadline,
    fault_point,
    reset_env_cache,
    use_deadline,
    use_faults,
)
from repro.workloads import random_circuit


class TestDeadline:
    def test_after_and_remaining(self):
        dl = Deadline.after(10.0)
        assert 9.0 < dl.remaining() <= 10.0
        assert not dl.expired()

    def test_expired_and_check(self):
        dl = Deadline.after(0.0)
        assert dl.expired()
        with pytest.raises(DeadlineExceeded, match="0.0s budget in sabre"):
            dl.check("sabre")

    def test_check_without_budget_or_where(self):
        dl = Deadline(time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceeded, match="exceeded the deadline"):
            dl.check()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Deadline.after(-1.0)

    @pytest.mark.parametrize(
        "budget", [float("nan"), float("inf"), True, "5"], ids=repr
    )
    def test_non_finite_or_non_numeric_budget_rejected(self, budget):
        # Regression: a NaN budget was accepted and never expired.
        with pytest.raises(ValueError, match="finite number of seconds"):
            Deadline.after(budget)

    def test_dict_roundtrip_preserves_instant(self):
        dl = Deadline.after(5.0)
        back = Deadline.from_dict(dl.to_dict())
        assert back.expires_mono == dl.expires_mono
        assert back.budget == 5.0

    def test_dict_roundtrip_survives_json(self):
        # The batch engine ships deadlines to workers as JSON-able dicts.
        dl = Deadline.after(5.0)
        back = Deadline.from_dict(json.loads(json.dumps(dl.to_dict())))
        assert back.expires_mono == dl.expires_mono

    def test_context_install_and_clear(self):
        assert current_deadline() is None
        outer = Deadline.after(10.0)
        with use_deadline(outer):
            assert current_deadline() is outer
            # None explicitly clears an outer deadline (the last
            # fallback router must run unbounded).
            with use_deadline(None):
                assert current_deadline() is None
            assert current_deadline() is outer
        assert current_deadline() is None


class TestFaultSpec:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec(stage="routing", action="explode")

    def test_stage_required(self):
        with pytest.raises(ValueError, match="stage"):
            FaultSpec(stage="", action="raise")

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(stage="routing", action="raise", probability=1.5)

    def test_dict_roundtrip(self):
        spec = FaultSpec(
            stage="routing", action="raise", job_id="j1", router="astar",
            times=3, probability=0.5, message="boom",
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_minimal_dict_form(self):
        # Defaults are omitted from the serial form, so plans stay terse.
        assert FaultSpec(stage="worker", action="crash").to_dict() == {
            "stage": "worker", "action": "crash",
        }

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"stage": "worker", "action": "crash",
                                 "sage": "typo"})


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(stage="worker", action="crash", job_id="j3"),
                FaultSpec(stage="routing", action="raise", router="astar"),
            ),
            seed=7,
        )
        back = FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert back == plan

    def test_has_action(self):
        plan = FaultPlan(specs=(FaultSpec(stage="worker", action="hang"),))
        assert plan.has_action("crash", "hang")
        assert not plan.has_action("corrupt")

    def test_unknown_plan_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_dict({"seed": 0, "fautls": []})

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="invalid fault plan JSON"):
            FaultPlan.from_json("{broken")

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"faults": [{"stage": "worker", "action": "hang"}]}')
        plan = FaultPlan.from_file(path)
        assert plan.specs[0].action == "hang"


class TestFaultPoints:
    def test_noop_without_plan(self):
        fault_point("routing")  # must not raise
        artifact = {"schema": "x"}
        assert corrupt_point("artifact", artifact) is artifact

    def test_raise_fires_at_matching_stage_only(self):
        plan = FaultPlan(specs=(
            FaultSpec(stage="routing", action="raise", message="boom"),
        ))
        with use_faults(plan):
            fault_point("placement")  # different stage: no-op
            with pytest.raises(FaultInjected, match="boom") as excinfo:
                fault_point("routing")
            assert excinfo.value.stage == "routing"

    def test_times_limits_firings(self):
        plan = FaultPlan(specs=(
            FaultSpec(stage="routing", action="raise", times=1),
        ))
        with use_faults(plan):
            with pytest.raises(FaultInjected):
                fault_point("routing")
            fault_point("routing")  # budget spent: no-op

    def test_job_id_match(self):
        plan = FaultPlan(specs=(
            FaultSpec(stage="worker", action="raise", job_id="victim"),
        ))
        with use_faults(plan, "bystander"):
            fault_point("worker")
        with use_faults(plan, "victim"):
            with pytest.raises(FaultInjected):
                fault_point("worker")

    def test_router_match(self):
        plan = FaultPlan(specs=(
            FaultSpec(stage="routing", action="raise", router="astar"),
        ))
        with use_faults(plan):
            fault_point("routing", router="sabre")
            with pytest.raises(FaultInjected):
                fault_point("routing", router="astar")

    def test_probability_is_seed_deterministic(self):
        plan = FaultPlan(specs=(
            FaultSpec(stage="routing", action="raise",
                      probability=0.5, times=None),
        ))

        def decisions():
            fired = []
            with use_faults(plan, "j1"):
                for _ in range(32):
                    try:
                        fault_point("routing")
                        fired.append(False)
                    except FaultInjected:
                        fired.append(True)
            return fired

        first, second = decisions(), decisions()
        assert first == second
        assert any(first) and not all(first)
        # A different seed resolves the same rolls differently.
        other_plan = FaultPlan(specs=plan.specs, seed=99)
        with use_faults(other_plan, "j1"):
            other = []
            for _ in range(32):
                try:
                    fault_point("routing")
                    other.append(False)
                except FaultInjected:
                    other.append(True)
        assert other != first

    def test_corrupt_mangles_artifact(self):
        plan = FaultPlan(specs=(
            FaultSpec(stage="artifact", action="corrupt"),
        ))
        clean = {"schema": "repro-artifact-v1", "native_qasm": "OPENQASM"}
        with use_faults(plan):
            mangled = corrupt_point("artifact", clean)
        assert mangled["schema"] == "corrupt"
        assert mangled["__corrupted__"] is True
        assert clean["schema"] == "repro-artifact-v1"  # input untouched

    def test_env_activation(self, monkeypatch):
        plan = {"faults": [{"stage": "worker", "action": "raise"}]}
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(plan))
        reset_env_cache()
        try:
            with pytest.raises(FaultInjected):
                fault_point("worker")
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            reset_env_cache()
        fault_point("worker")  # disarmed again

    def test_env_activation_from_file(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"faults": [{"stage": "worker", "action": "raise"}]}')
        monkeypatch.setenv("REPRO_FAULTS", f"@{path}")
        reset_env_cache()
        try:
            with pytest.raises(FaultInjected):
                fault_point("worker")
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            reset_env_cache()


class TestFallbackChain:
    def test_astar_degrades_through_sabre_to_naive(self):
        assert fallback_chain("astar") == ("astar", "sabre", "naive")

    def test_sabre_degrades_to_naive(self):
        assert fallback_chain("sabre") == ("sabre", "naive")

    def test_naive_has_no_fallback(self):
        assert fallback_chain("naive") == ("naive",)

    def test_unknown_router_gets_full_tail(self):
        assert fallback_chain("lookahead") == ("lookahead", "sabre", "naive")


class TestCompileWithConfigResilience:
    def _inputs(self):
        circuit = random_circuit(5, 12, seed=3, two_qubit_fraction=0.6)
        return circuit, get_device("ibm_qx4")

    def test_clean_path_has_no_resilience_metadata(self):
        circuit, device = self._inputs()
        result = compile_with_config(circuit, device, PassConfig())
        assert "resilience" not in result.metadata

    def test_injected_routing_failure_degrades(self):
        circuit, device = self._inputs()
        plan = FaultPlan(specs=(
            FaultSpec(stage="routing", action="raise", router="astar"),
        ))
        with use_faults(plan):
            result = compile_with_config(
                circuit, device, PassConfig(router="astar")
            )
        info = result.metadata["resilience"]
        assert info["degraded"] is True
        assert info["requested_router"] == "astar"
        assert info["router_used"] == "sabre"
        assert info["fallback_path"] == ["astar", "sabre"]
        assert info["failures"][0]["kind"] == "FaultInjected"

    def test_expired_deadline_degrades_to_last_router(self):
        circuit, device = self._inputs()
        result = compile_with_config(
            circuit, device, PassConfig(router="astar"),
            deadline=Deadline.after(0.0),
        )
        info = result.metadata["resilience"]
        assert info["router_used"] == "naive"
        assert [f["kind"] for f in info["failures"]] == \
            ["deadline", "deadline"]

    def test_no_fallback_reraises(self):
        circuit, device = self._inputs()
        with pytest.raises(DeadlineExceeded):
            compile_with_config(
                circuit, device, PassConfig(router="astar"),
                deadline=Deadline.after(0.0), fallback=False,
            )

    def test_last_router_runs_unbounded(self):
        # naive has no fallback: even an expired deadline must not stop
        # it — the chain's contract is to always produce an answer.
        circuit, device = self._inputs()
        result = compile_with_config(
            circuit, device, PassConfig(router="naive"),
            deadline=Deadline.after(0.0),
        )
        assert result.routed is not None
        assert "resilience" not in result.metadata


class TestDeadlineHonoured:
    """Acceptance: routers honour a 50 ms deadline within 2x."""

    BUDGET = 0.05

    @staticmethod
    def _family_input():
        # The family kernel alone takes several budgets on this input
        # (~0.2-0.35 s unbounded), while the Python work before its first
        # poll (the dependency graph) stays well under one.
        circuit = random_circuit(100, 3000, seed=7, two_qubit_fraction=0.9)
        return circuit, grid_device(10, 10)

    def _route_under_deadline(self, router_fn, circuit=None, device=None):
        if circuit is None:
            # Big enough that unbounded A* takes well over the budget.
            circuit = random_circuit(16, 1200, seed=7, two_qubit_fraction=0.9)
            device = get_device("ibm_qx5")
        # The device's routing tables are built once per device: build
        # them here, with a tiny route, not inside the timed window.
        router_fn(Circuit(2).cnot(0, 1), device)
        # In a whole-suite run a full collection of earlier tests' garbage
        # takes ~100 ms; run it here, not inside the window, which times
        # the router's own polling.
        gc.collect()
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            with use_deadline(Deadline.after(self.BUDGET)):
                router_fn(circuit, device)
        return time.perf_counter() - t0

    def _family_aborts(self, router_fn):
        # With the kernel available the abort must come from the kernel's
        # own deadline poll, not from the Python loop (the warm-up route
        # is the first of the two kernel calls).
        native = warm_kernel()
        before = kernel_stats()
        seconds = self._route_under_deadline(router_fn, *self._family_input())
        after = kernel_stats()
        if native:
            assert after["family_native_calls"] == before["family_native_calls"] + 2
            assert after["family_python_calls"] == before["family_python_calls"]
        return seconds

    def test_sabre_aborts_within_twice_the_budget(self):
        assert self._family_aborts(route_sabre) < 2 * self.BUDGET

    def test_latency_aborts_within_twice_the_budget(self):
        assert self._family_aborts(route_latency) < 2 * self.BUDGET

    def test_reliability_aborts_within_twice_the_budget(self):
        assert self._family_aborts(route_reliability) < 2 * self.BUDGET

    @pytest.mark.parametrize("router", ["latency", "reliability"])
    def test_pipeline_degrades_through_sabre_to_naive(self, router):
        # Unbounded, either router takes several budgets on this circuit;
        # it must abort, and sabre after it, so naive answers.
        circuit, device = self._family_input()
        gc.collect()
        result = compile_with_config(
            circuit, device, PassConfig(router=router),
            deadline=Deadline.after(self.BUDGET),
        )
        info = result.metadata["resilience"]
        assert info["degraded"] is True
        assert info["fallback_path"] == [router, "sabre", "naive"]
        assert [f["kind"] for f in info["failures"]] == ["deadline", "deadline"]

    def test_astar_aborts_within_twice_the_budget(self):
        # With the kernel available the abort must come from the batch
        # kernel's own deadline poll, not from a Python fallback.  The
        # kernel is built first so its one-time compile is not timed.
        native = warm_kernel()
        before = kernel_stats()["python_layers"]
        assert self._route_under_deadline(route_astar) < 2 * self.BUDGET
        if native:
            assert kernel_stats()["python_layers"] == before
