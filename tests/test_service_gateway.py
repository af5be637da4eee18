"""Tests for the async job gateway (repro.service.gateway).

Covers the submit/await API, event streams, priority-queue semantics
under contention, typed admission-control rejections, queued-past-SLO
short-circuits, and the end-to-end acceptance scenario: a mixed
two-tier batch with injected crash and hang faults where every job
still reaches exactly one terminal status.
"""

import asyncio
import time

import pytest

from repro.core.pipeline import PassConfig
from repro.devices import get_device
from repro.qasm import to_openqasm
from repro.resilience import FaultPlan, FaultSpec
from repro.service import (
    JOB_STATUSES,
    AsyncCompileService,
    CompileCache,
    CompileJob,
    CompileService,
    Draining,
    Overloaded,
)
from repro.workloads import random_circuit


def _job(seed=1, router="sabre", **kwargs):
    qasm = to_openqasm(
        random_circuit(5, 12, seed=seed, two_qubit_fraction=0.6)
    )
    return CompileJob.create(
        qasm, get_device("ibm_qx4"), PassConfig(router=router), **kwargs
    )


@pytest.fixture
def service():
    svc = CompileService(CompileCache(), max_workers=2)
    yield svc
    svc.close()


class TestSubmitAwait:
    def test_submit_returns_immediately_and_result_awaits(self, service):
        gw = AsyncCompileService(service)
        handle = gw.submit(_job(seed=11, job_id="await-me"))
        assert handle.job_id == "await-me"

        async def consume():
            return await handle.result()

        result = asyncio.run(consume())
        assert result.status == "ok"
        assert result.job_id == "await-me"
        assert handle.done() and handle.status == "ok"
        gw.close()

    def test_sync_wait_and_handle_lookup(self, service):
        gw = AsyncCompileService(service)
        handle = gw.submit(_job(seed=12, job_id="sync-me"))
        result = handle.wait(timeout=120)
        assert result.status == "ok"
        assert gw.get("sync-me") is handle
        assert gw.get("never-submitted") is None
        gw.close()

    def test_owned_service_built_and_closed_by_gateway(self):
        gw = AsyncCompileService()  # builds its own CompileService
        assert gw._owns_service
        result = gw.submit(_job(seed=13)).wait(timeout=120)
        assert result.status == "ok"
        gw.close()


class TestEvents:
    def test_lifecycle_stream_ends_at_terminal(self, service):
        gw = AsyncCompileService(service)

        async def consume():
            handle = gw.submit(_job(seed=21, job_id="evt"))
            return [evt async for evt in handle.events()]

        events = asyncio.run(consume())
        kinds = [evt["event"] for evt in events]
        assert kinds[0] == "queued"
        assert kinds[-1] in JOB_STATUSES
        assert events[-1]["terminal"] is True
        # Exactly one terminal event, and nothing after it.
        assert sum(1 for evt in events if evt.get("terminal")) == 1
        gw.close()

    def test_late_attach_replays_history(self, service):
        gw = AsyncCompileService(service)
        handle = gw.submit(_job(seed=22, job_id="late"))
        handle.wait(timeout=120)  # finish first, then attach

        async def consume():
            return [evt async for evt in handle.events()]

        events = asyncio.run(consume())
        assert [evt["event"] for evt in events][-1] == "ok"
        assert events[-1]["terminal"] is True
        gw.close()

    def test_event_log_snapshot(self, service):
        gw = AsyncCompileService(service)
        handle = gw.submit(_job(seed=23))
        handle.wait(timeout=120)
        log = handle.event_log()
        assert log[0]["event"] == "queued"
        assert log[-1]["terminal"] is True
        gw.close()


class TestPriorityQueue:
    def test_interactive_dispatches_before_earlier_batch(self, service):
        gw = AsyncCompileService(service, auto_dispatch=False, micro_batch=4)
        batch = [
            gw.submit(_job(seed=30 + i, job_id=f"b{i}"), priority="batch")
            for i in range(4)
        ]
        inter = [
            gw.submit(
                _job(seed=40 + i, job_id=f"i{i}"), priority="interactive"
            )
            for i in range(4)
        ]
        gw.start()
        for handle in batch + inter:
            handle.wait(timeout=120)
        # Every interactive job drained before any batch job, although
        # every batch job was submitted first.
        max_inter = max(h.dispatch_index for h in inter)
        min_batch = min(h.dispatch_index for h in batch)
        assert max_inter < min_batch
        gw.close()

    def test_fifo_within_a_tier(self, service):
        gw = AsyncCompileService(service, auto_dispatch=False)
        handles = [
            gw.submit(_job(seed=50 + i, job_id=f"f{i}"), priority="batch")
            for i in range(4)
        ]
        gw.start()
        for handle in handles:
            handle.wait(timeout=120)
        order = [h.dispatch_index for h in handles]
        assert order == sorted(order)
        gw.close()

    def test_unknown_priority_rejected(self, service):
        gw = AsyncCompileService(service)
        with pytest.raises(ValueError, match="unknown priority"):
            gw.submit(_job(seed=55), priority="urgent")
        gw.close()


class TestAdmissionControl:
    def test_queue_depth_cap_rejects_typed(self, service):
        gw = AsyncCompileService(
            service, auto_dispatch=False, max_queue_depth=3
        )
        for i in range(3):
            gw.submit(_job(seed=60 + i, job_id=f"q{i}"))
        with pytest.raises(Overloaded) as excinfo:
            gw.submit(_job(seed=69, job_id="overflow"))
        assert excinfo.value.reason == "queue_full"
        assert gw.stats()["gateway"]["rejected_queue_full"] == 1
        # The rejected job never entered the queue.
        assert gw.get("overflow") is None
        gw.close()

    def test_tenant_budget_rejects_only_that_tenant(self, service):
        gw = AsyncCompileService(
            service, auto_dispatch=False, tenant_burst=2, tenant_rate=0.0
        )
        gw.submit(_job(seed=70, job_id="t0"), tenant="alice")
        gw.submit(_job(seed=71, job_id="t1"), tenant="alice")
        with pytest.raises(Overloaded) as excinfo:
            gw.submit(_job(seed=72, job_id="t2"), tenant="alice")
        assert excinfo.value.reason == "tenant_budget"
        assert excinfo.value.tenant == "alice"
        assert excinfo.value.retry_after is None  # rate 0: never refills
        # A different tenant still has budget.
        handle = gw.submit(_job(seed=73, job_id="t3"), tenant="bob")
        assert handle.status == "queued"
        assert gw.stats()["gateway"]["rejected_tenant_budget"] == 1
        gw.close()

    def test_tenant_bucket_refills(self, service):
        gw = AsyncCompileService(
            service, auto_dispatch=False, tenant_burst=1, tenant_rate=50.0
        )
        gw.submit(_job(seed=74, job_id="r0"))
        with pytest.raises(Overloaded) as excinfo:
            gw.submit(_job(seed=75, job_id="r1"))
        assert excinfo.value.retry_after is not None
        time.sleep(excinfo.value.retry_after + 0.05)
        gw.submit(_job(seed=76, job_id="r2"))  # refilled: admitted
        gw.close()

    def test_token_bucket_rate_zero_never_divides(self):
        # Burst-only budget: rate=0 must mean "no retry time", never a
        # ZeroDivisionError from dividing by the refill rate.
        from repro.service.gateway import _TokenBucket

        bucket = _TokenBucket(capacity=2, rate=0.0)
        now = time.monotonic()
        assert bucket.try_take(now)
        assert bucket.try_take(now)
        assert not bucket.try_take(now)
        assert bucket.retry_after() is None
        # The bucket stays closed forever: even an hour of simulated
        # elapsed time refills nothing.
        assert not bucket.try_take(now + 3600.0)
        assert bucket.retry_after() is None

    def test_draining_rejects_submissions(self, service):
        gw = AsyncCompileService(service)
        gw.close()
        with pytest.raises(Draining):
            gw.submit(_job(seed=77))


class TestDeadlines:
    def test_queued_past_deadline_never_touches_a_worker(self, service):
        gw = AsyncCompileService(service, auto_dispatch=False)
        handle = gw.submit(_job(seed=80, job_id="slo"), deadline=0.02)
        time.sleep(0.1)  # expire in the queue
        gw.start()
        result = handle.wait(timeout=30)
        assert result.status == "timeout"
        assert result.attempts == 0
        assert "SLO" in result.error
        stats = gw.stats()
        assert stats["gateway"]["deadline_drops"] == 1
        # The short-circuit happened inside the gateway: the compile
        # service never saw the job.
        assert stats["service"]["jobs_submitted"] == 0
        gw.close()

    def test_bad_job_deadline_fails_only_that_job(self):
        # Regression: the bad job's ValueError escaped submit_batch and
        # every job of its micro-batch reported "gateway dispatch failed".
        bad = _job(seed=84, job_id="bad")
        bad.deadline = -1.0  # after construction, which validates it
        gw = AsyncCompileService(
            CompileService(CompileCache(), max_workers=1),
            auto_dispatch=False,
        )
        try:
            handles = [gw.submit(bad), gw.submit(_job(seed=85, job_id="good"))]
            gw.start()
            results = [h.wait(timeout=120) for h in handles]
        finally:
            gw.close()
        assert [r.status for r in results] == ["invalid", "ok"]

    def test_live_deadline_threads_remaining_budget_into_job(self, service):
        gw = AsyncCompileService(service, auto_dispatch=False)
        handle = gw.submit(_job(seed=81, job_id="live"), deadline=60.0)
        assert handle.job.deadline is None  # set only at dispatch
        gw.start()
        result = handle.wait(timeout=120)
        assert result.status == "ok"
        assert handle.job.deadline is not None
        assert 0 < handle.job.deadline <= 60.0
        gw.close()


class TestStats:
    def test_stats_shape_and_tier_percentiles(self, service):
        gw = AsyncCompileService(service)
        handles = [
            gw.submit(
                _job(seed=90 + i, job_id=f"s{i}"),
                priority="interactive" if i % 2 else "batch",
            )
            for i in range(4)
        ]
        for handle in handles:
            handle.wait(timeout=120)
        stats = gw.stats()
        gw_stats = stats["gateway"]
        assert gw_stats["submitted"] == 4
        assert gw_stats["admitted"] == 4
        assert gw_stats["dispatched"] == 4
        assert gw_stats["completed"].get("ok") == 4
        assert gw_stats["queue_depth"] == 0
        for tier in ("interactive", "batch"):
            tier_stats = gw_stats["tiers"][tier]
            assert tier_stats["n"] == 2
            assert tier_stats["queue_wait_p50_ms"] >= 0
            assert tier_stats["latency_p50_ms"] > 0
        assert gw_stats["job_latency_p50_ms"] > 0
        # The underlying service sections ride along.
        assert "service" in stats and "pool" in stats and "cache" in stats
        gw.close()


class TestCloseSemantics:
    def test_close_without_drain_abandons_queue(self, service):
        gw = AsyncCompileService(service, auto_dispatch=False)
        handles = [
            gw.submit(_job(seed=100 + i, job_id=f"a{i}")) for i in range(3)
        ]
        gw.close(drain=False)
        for handle in handles:
            result = handle.wait(timeout=10)
            assert result.status == "crashed"
            assert "shut down" in result.error
            assert result.attempts == 0

    def test_close_with_drain_finishes_queue(self, service):
        gw = AsyncCompileService(service, auto_dispatch=False)
        handles = [
            gw.submit(_job(seed=110 + i, job_id=f"d{i}")) for i in range(3)
        ]
        gw.close(drain=True)
        for handle in handles:
            assert handle.wait(timeout=120).status == "ok"

    def test_close_idempotent(self, service):
        gw = AsyncCompileService(service)
        gw.close()
        gw.close()

    def test_context_manager(self, service):
        with AsyncCompileService(service) as gw:
            result = gw.submit(_job(seed=115)).wait(timeout=120)
            assert result.status == "ok"
        assert gw.draining


class TestEndToEndAcceptance:
    def test_mixed_tiers_with_faults_all_terminal(self):
        """The ISSUE acceptance scenario: >=20 jobs across two tiers
        with one injected crash and one injected hang; every job ends
        terminal, interactive queue waits beat batch, and the job past
        the admission cap is rejected with a typed error."""
        plan = FaultPlan(specs=(
            FaultSpec(stage="worker", action="crash", job_id="b3",
                      times=None),
            FaultSpec(stage="worker", action="hang", job_id="b5",
                      times=None, delay=30.0),
        ), seed=7)
        service = CompileService(
            CompileCache(), max_workers=2, retries=1,
            default_timeout=2.0, fault_plan=plan,
        )
        gw = AsyncCompileService(
            service, auto_dispatch=False, max_queue_depth=20, micro_batch=4
        )
        handles = {}
        for i in range(10):
            handles[f"b{i}"] = gw.submit(
                _job(seed=200 + i, job_id=f"b{i}"), priority="batch"
            )
        for i in range(10):
            handles[f"i{i}"] = gw.submit(
                _job(seed=300 + i, job_id=f"i{i}"), priority="interactive"
            )
        # The queue is at its 20-job cap: admission rejects the 21st.
        with pytest.raises(Overloaded) as excinfo:
            gw.submit(_job(seed=400, job_id="overflow"))
        assert excinfo.value.reason == "queue_full"

        gw.start()
        results = {
            job_id: handle.wait(timeout=300)
            for job_id, handle in handles.items()
        }

        # Every job reached exactly one terminal status.
        assert all(r.status in JOB_STATUSES for r in results.values())
        assert results["b3"].status == "crashed"
        assert results["b5"].status == "timeout"
        clean = [r for job_id, r in results.items()
                 if job_id not in ("b3", "b5")]
        assert all(r.status == "ok" for r in clean)

        # Interactive jobs jumped the earlier-submitted batch tier.
        tiers = gw.stats()["gateway"]["tiers"]
        assert tiers["interactive"]["queue_wait_p50_ms"] \
            < tiers["batch"]["queue_wait_p50_ms"]
        gw.close()
        service.close()
