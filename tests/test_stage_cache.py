"""Tests for stage-level compile-cache sharding.

Covers the per-stage key derivation (`repro.service.keys.stage_key`),
the stage namespace of `CompileCache`, the pipeline's `stage_store`
hooks, invalidation-by-addressing per stage (a scheduler change must
re-key only the schedule stage), corrupt-entry semantics, tracing, and
the engine integration (inline and pool paths).
"""

import json

import pytest

from repro.core.pipeline import (
    PassConfig,
    STAGES,
    compile_with_config,
    routing_result_from_obj,
    routing_result_to_obj,
)
from repro.devices import get_device
from repro.obs import Tracer, use_tracer
from repro.qasm import parse_qasm, to_openqasm
from repro.resilience.faults import FaultPlan
from repro.service import CompileCache, CompileJob, CompileService
from repro.service.artifact import result_to_artifact
from repro.service.cache import CacheStageStore
from repro.service.engine import run_payload
from repro.service.keys import canonical_json, stage_key
from repro.workloads import random_circuit


@pytest.fixture
def device():
    return get_device("ibm_qx4")


@pytest.fixture
def qasm():
    return to_openqasm(
        random_circuit(5, 18, seed=9, two_qubit_fraction=0.6)
    )


def _compile(qasm, device, store=None, **cfg):
    return compile_with_config(
        parse_qasm(qasm), device, PassConfig(**cfg), stage_store=store
    )


class TestStageKeys:
    INPUTS = {"circuit_qasm": "OPENQASM 2.0;", "device": {"n": 5}}

    def test_deterministic(self):
        a = stage_key("routing", self.INPUTS, {"router": "sabre"})
        b = stage_key("routing", self.INPUTS, {"router": "sabre"})
        assert a == b and len(a) == 64

    def test_stage_name_changes_key(self):
        assert stage_key("routing", self.INPUTS, {}) != stage_key(
            "placement", self.INPUTS, {}
        )

    def test_inputs_change_key(self):
        other = {"circuit_qasm": "OPENQASM 2.0;\nqreg q[1];", "device": {"n": 5}}
        assert stage_key("routing", self.INPUTS, {}) != stage_key(
            "routing", other, {}
        )

    def test_config_slice_changes_key(self):
        base = stage_key("routing", self.INPUTS, {"router": "sabre"})
        assert stage_key("routing", self.INPUTS, {"router": "astar"}) != base

    def test_version_changes_key(self):
        base = stage_key("routing", self.INPUTS, {})
        assert stage_key("routing", self.INPUTS, {}, version="0.0.0-x") != base

    def test_unserialisable_raises(self):
        with pytest.raises(TypeError):
            stage_key("routing", {"bad": object()}, {})


class TestStageSlice:
    def test_every_stage_has_a_slice(self):
        config = PassConfig(
            placer="assignment", router="astar",
            router_options={"lookahead_layers": 2},
            decompose=True, optimize=True,
            schedule="constraints", control_constraints=True,
        )
        assert config.stage_slice("placement") == {"placer": "assignment"}
        assert config.stage_slice("routing") == {
            "router": "astar", "router_options": {"lookahead_layers": 2},
        }
        assert config.stage_slice("lower") == {
            "decompose": True, "optimize": True,
        }
        assert config.stage_slice("schedule") == {
            "schedule": "constraints", "control_constraints": True,
        }

    def test_slices_cover_every_config_knob(self):
        # The union of all slices must mention every PassConfig field:
        # a knob outside every slice would change output without
        # changing any stage key.
        config = PassConfig()
        covered = set()
        for stage in STAGES:
            covered |= set(config.stage_slice(stage))
        assert covered == set(config.to_dict())

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            PassConfig().stage_slice("teleport")


class TestRoutingResultRoundTrip:
    def test_survives_serialisation(self, qasm, device):
        routed = _compile(qasm, device).routed
        obj = routing_result_to_obj(routed)
        json.dumps(obj)  # must be plain JSON
        restored = routing_result_from_obj(obj)
        assert to_openqasm(restored.circuit) == to_openqasm(routed.circuit)
        assert restored.initial.prog_to_phys() == routed.initial.prog_to_phys()
        assert restored.final.prog_to_phys() == routed.final.prog_to_phys()
        assert restored.added_swaps == routed.added_swaps
        assert restored.router == routed.router

    def test_qasm_form_is_a_fixed_point(self, qasm, device):
        # Key stability across reload: serialising a reloaded routing
        # result must produce the same bytes it was loaded from.
        obj = routing_result_to_obj(_compile(qasm, device).routed)
        again = routing_result_to_obj(routing_result_from_obj(obj))
        assert canonical_json(again) == canonical_json(obj)


class TestStageReuse:
    def test_placement_reused_across_routers(self, qasm, device):
        cache = CompileCache()
        store = CacheStageStore(cache)
        _compile(qasm, device, store, router="sabre")
        _compile(qasm, device, store, router="astar")
        stages = cache.stats()["stages"]
        assert stages["placement"]["memory_hits"] == 1
        assert stages["placement"]["misses"] == 1
        assert stages["routing"]["misses"] == 2  # distinct router slices

    def test_scheduler_change_misses_only_schedule_stage(self, qasm, device):
        # Invalidation by addressing, per stage: a scheduler tweak
        # re-keys the schedule stage and nothing upstream, so the
        # routed/lowered circuit is reused — but never a stale schedule.
        cache = CompileCache()
        store = CacheStageStore(cache)
        _compile(qasm, device, store, schedule="asap")
        _compile(qasm, device, store, schedule="alap")
        stages = cache.stats()["stages"]
        for upstream in ("placement", "routing", "lower"):
            assert stages[upstream]["memory_hits"] == 1, upstream
            assert stages[upstream]["misses"] == 1, upstream
        assert stages["schedule"]["misses"] == 2
        assert "memory_hits" not in stages["schedule"]
        assert cache.stats()["stage_hits"] == 3
        assert cache.stats()["stage_misses"] == 5

    def test_staged_artifacts_byte_identical_to_fresh(self, qasm, device):
        store = CacheStageStore(CompileCache())
        for router in ("sabre", "naive"):
            for sched in ("asap", "alap"):
                cfg = PassConfig(router=router, schedule=sched)
                staged = compile_with_config(
                    parse_qasm(qasm), device, cfg, stage_store=store
                )
                fresh = compile_with_config(parse_qasm(qasm), device, cfg)
                assert canonical_json(
                    result_to_artifact(staged, config=cfg)
                ) == canonical_json(result_to_artifact(fresh, config=cfg))

    def test_callable_placer_never_stage_cached(self, qasm, device):
        from repro.mapping.placement import PLACERS

        cache = CompileCache()
        store = CacheStageStore(cache)
        placer = PLACERS["assignment"]  # a callable, not a name
        result = compile_with_config(
            parse_qasm(qasm), device, stage_store=store,
        )
        del result
        custom = parse_qasm(qasm)
        from repro.core.pipeline import compile_circuit

        compile_circuit(custom, device, placer=placer, stage_store=store)
        stages = cache.stats()["stages"]
        # One placement probe from the named run; none from the callable.
        assert stages["placement"]["misses"] == 1
        assert stages["placement"].get("memory_hits", 0) == 0

    def test_unserialisable_inputs_are_uncacheable_not_fatal(self):
        store = CacheStageStore(CompileCache())
        assert store.load("routing", {"bad": object()}, {}) is None
        store.store("routing", {"bad": object()}, {}, {"x": 1})  # no raise
        assert store.cache.stage_counters() == {}


class TestStageDiskTier:
    def test_stage_entries_shared_across_instances(self, qasm, device, tmp_path):
        first = CompileCache(directory=tmp_path)
        _compile(qasm, device, CacheStageStore(first), router="sabre")
        layout = {
            p.relative_to(tmp_path).parts[:2]
            for p in tmp_path.glob("stages/*/*.json")
        }
        assert layout == {("stages", s) for s in STAGES}

        fresh = CompileCache(directory=tmp_path)
        _compile(qasm, device, CacheStageStore(fresh), router="sabre")
        stages = fresh.stats()["stages"]
        for stage in STAGES:
            assert stages[stage]["disk_hits"] == 1, stage
            assert "misses" not in stages[stage], stage

    def test_corrupt_stage_entry_deleted_and_recomputed(
        self, qasm, device, tmp_path
    ):
        first = CompileCache(directory=tmp_path)
        _compile(qasm, device, CacheStageStore(first), router="sabre")
        expected = canonical_json(result_to_artifact(
            _compile(qasm, device, router="sabre"),
            config=PassConfig(router="sabre"),
        ))
        [sched_file] = tmp_path.glob("stages/schedule/*.json")
        sched_file.write_text("{not json")

        fresh = CompileCache(directory=tmp_path)
        result = _compile(qasm, device, CacheStageStore(fresh), router="sabre")
        stages = fresh.stats()["stages"]
        assert stages["schedule"]["disk_errors"] == 1
        assert stages["schedule"]["misses"] == 1
        # The corrupt bytes never reached the result, and the slot was
        # rewritten with a valid entry.
        assert canonical_json(result_to_artifact(
            result, config=PassConfig(router="sabre")
        )) == expected
        json.loads(sched_file.read_text())

    def test_clear_drops_stage_entries(self, qasm, device, tmp_path):
        cache = CompileCache(directory=tmp_path)
        _compile(qasm, device, CacheStageStore(cache))
        assert list(tmp_path.glob("stages/*/*.json"))
        cache.clear()
        assert not list(tmp_path.glob("stages/*/*.json"))


class TestStageTracing:
    def test_probes_emit_hit_and_miss_spans(self, qasm, device):
        store = CacheStageStore(CompileCache())
        tracer = Tracer()
        with use_tracer(tracer):
            _compile(qasm, device, store, schedule="asap")
            _compile(qasm, device, store, schedule="alap")
        names = [e["name"] for e in tracer.finished()]
        assert names.count("cache.stage_miss") == 5
        assert names.count("cache.stage_hit") == 3
        hit_stages = {
            e["args"]["stage"]
            for e in tracer.finished()
            if e["name"] == "cache.stage_hit"
        }
        assert hit_stages == {"placement", "routing", "lower"}


class TestServiceIntegration:
    def _jobs(self, qasm, device, routers=("sabre", "astar"),
              schedule="asap"):
        return [
            CompileJob.create(
                qasm, device,
                PassConfig(router=router, schedule=schedule),
                job_id=f"{router}/{schedule}",
            )
            for router in routers
        ]

    def test_inline_submits_share_stage_entries(self, qasm, device):
        service = CompileService(CompileCache())
        for job in self._jobs(qasm, device):
            assert service.submit(job).ok
        svc = service.stats()["service"]
        assert svc["stage_hits"] >= 1  # placement reused across routers
        assert svc["stage_misses"] >= 2
        service.close()

    def test_stage_cache_flag_off_means_no_stage_activity(self, qasm, device):
        service = CompileService(CompileCache(), stage_cache=False)
        for job in self._jobs(qasm, device):
            assert service.submit(job).ok
        svc = service.stats()["service"]
        assert svc["stage_hits"] == 0 and svc["stage_misses"] == 0
        assert service.cache.stage_counters() == {}
        service.close()

    def test_pool_workers_probe_disk_and_parent_merges_counters(
        self, qasm, device, tmp_path
    ):
        service = CompileService(
            CompileCache(directory=tmp_path), max_workers=2
        )
        try:
            cold = service.submit_batch(self._jobs(qasm, device))
            assert all(r.ok for r in cold)
            assert list(tmp_path.glob("stages/*/*.json"))
            # New schedule => every full-pipeline key misses, but the
            # workers find placement/routing/lower on disk.
            warm = service.submit_batch(
                self._jobs(qasm, device, schedule="alap")
            )
            assert all(r.ok and r.cache_hit is None for r in warm)
            svc = service.stats()["service"]
            assert svc["stage_hits"] >= 3
            stages = service.cache.stats()["stages"]
            assert stages["schedule"].get("disk_hits", 0) == 0
        finally:
            service.close()

    def test_fault_plan_runs_never_touch_the_stage_cache(
        self, qasm, device, tmp_path
    ):
        plan = FaultPlan.from_dict({
            "seed": 7,
            "faults": [{
                "stage": "worker", "action": "crash",
                "job_id": "someone-else", "times": None,
            }],
        })
        job = CompileJob.create(
            qasm, device, PassConfig(), job_id="clean-job"
        )
        payload = job.payload()
        payload["faults"] = plan.to_dict()
        payload["stage_cache_dir"] = str(tmp_path / "stages-under-faults")
        outcome = run_payload(payload)
        assert outcome["status"] == "ok"
        assert "stage_counters" not in outcome
        assert not (tmp_path / "stages-under-faults").exists()


class TestRouterSweep:
    """A router x scheduler sweep through one service and a fresh cache."""

    def test_sweep_reuses_stages_and_matches_fresh_compiles(self):
        # Every full-pipeline key of the sweep is distinct, so all hits
        # come from the stage entries: placement is shared by the four
        # routers, each routed and lowered circuit by three schedulers.
        device = get_device("ibm_qx5")
        qasm = to_openqasm(
            random_circuit(12, 60, seed=42, two_qubit_fraction=0.6)
        )
        jobs = [
            CompileJob.create(
                qasm, device, PassConfig(router=router, schedule=sched),
                job_id=f"sweep/{router}/{sched}",
            )
            for router in ("sabre", "astar", "naive", "latency")
            for sched in ("asap", "alap", "constraints")
        ]
        service = CompileService(CompileCache(), max_workers=1)
        try:
            results = service.submit_batch(jobs)
            cache = service.stats()["cache"]
        finally:
            service.close()
        for job, res in zip(jobs, results):
            fresh = compile_with_config(parse_qasm(qasm), device, job.config)
            assert res.ok and canonical_json(res.artifact) == canonical_json(
                result_to_artifact(fresh, config=job.config)
            ), job.job_id
        assert cache["stage_hits"] + cache["stage_misses"] > 0
        assert cache["stage_hit_rate"] > 0.5, cache["stage_hit_rate"]
