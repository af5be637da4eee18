"""Tests for the batch compile engine (repro.service.engine)."""

import os
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.core.pipeline import PassConfig
from repro.devices import get_device
from repro.obs import Tracer, use_tracer
from repro.qasm import to_openqasm
from repro.resilience import FaultPlan, FaultSpec
from repro.service import CompileCache, CompileJob, CompileService
from repro.service.engine import run_payload
from repro.service.keys import canonical_json
from repro.workloads import random_circuit


def _job(seed=1, router="sabre", **kwargs):
    qasm = to_openqasm(
        random_circuit(5, 12, seed=seed, two_qubit_fraction=0.6)
    )
    return CompileJob.create(
        qasm, get_device("ibm_qx4"), PassConfig(router=router), **kwargs
    )


def _worker_fault(action, job_id=None, delay=None):
    """A plan firing ``action`` at worker entry of every (matching) job."""
    extra = {} if delay is None else {"delay": delay}
    return FaultPlan(specs=(FaultSpec(
        stage="worker", action=action, job_id=job_id, times=None, **extra
    ),))


class TestSubmit:
    def test_fresh_compile(self):
        service = CompileService(CompileCache())
        res = service.submit(_job())
        assert res.ok and res.status == "ok"
        assert res.cache_hit is None
        assert res.artifact["routing"]["added_swaps"] >= 0
        assert res.metrics["compile_s"] > 0

    def test_cache_hit_on_resubmit(self):
        service = CompileService(CompileCache())
        first = service.submit(_job(seed=2))
        second = service.submit(_job(seed=2))
        assert second.cache_hit == "memory"
        assert second.key == first.key
        assert second.artifact == first.artifact

    def test_result_reconstruction(self):
        service = CompileService(CompileCache())
        res = service.submit(_job(seed=3))
        rebuilt = res.result()
        assert rebuilt.routed.added_swaps == \
            res.artifact["routing"]["added_swaps"]

    def test_error_status_for_bad_qasm(self):
        service = CompileService(CompileCache())
        job = CompileJob(
            qasm="definitely not qasm",
            device=get_device("ibm_qx4").to_dict(),
            config=PassConfig(),
        )
        res = service.submit(job)
        assert res.status == "invalid" and not res.ok
        assert res.artifact is None and res.error

    def test_gate_with_wrong_operands_is_an_invalid_job(self):
        # Regression: "cx q[0];" made CompileJob.create raise Gate's
        # ValueError instead of keeping the text for an "invalid" result.
        qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n"
        job = CompileJob.create(qasm, get_device("ibm_qx4"))
        assert job.qasm == qasm
        assert len(job.key()) == 64
        res = CompileService(CompileCache()).submit(job)
        assert res.status == "invalid" and not res.ok
        assert "line 3" in res.error and "expects 2 qubits" in res.error

    @pytest.mark.parametrize(
        "param", ["1/0", "-" * 5000 + "1", "1e400", "inf", "nan"],
        ids=["div0", "signs", "1e400", "inf", "nan"],
    )
    def test_parameter_arithmetic_error_is_an_invalid_job(self, param):
        # Regression: CompileJob.create and key() raised ZeroDivisionError
        # or RecursionError, and a non-finite angle compiled "ok".
        qasm = f"OPENQASM 2.0;\nqreg q[2];\nrx({param}) q[0];\n"
        job = CompileJob.create(qasm, get_device("ibm_qx5"))
        assert job.qasm == qasm
        assert len(job.key()) == 64
        res = CompileService(CompileCache()).submit(job)
        assert res.status == "invalid" and res.artifact is None
        assert res.error.startswith("QasmError: line 3, col 1: ")

    @pytest.mark.parametrize("bit", [5, 40])
    def test_condition_bit_that_names_no_qubit_is_an_invalid_job(self, bit):
        # Regression: c5 compiled "ok" to a gate conditioned on a bit
        # nothing measures; c40 failed with "IndexError: list index out
        # of range" from the scheduler.
        qasm = (
            f"OPENQASM 2.0;\nqreg q[2];\ncreg c{bit}[1];\n"
            f"if(c{bit}==1) x q[0];\n"
        )
        job = CompileJob.create(qasm, get_device("ibm_qx5"))
        assert job.qasm == qasm
        res = CompileService(CompileCache()).submit(job)
        assert res.status == "invalid" and res.artifact is None
        assert res.error == (
            f"QasmError: line 4, col 1: condition bit c{bit} names no "
            "qubit; the program declares 2"
        )

    def test_measure_into_another_qubits_bit_is_an_invalid_job(self):
        # Regression: the target was ignored and the job compiled "ok",
        # with its X no longer depending on the qubit that was measured.
        qasm = (
            "OPENQASM 2.0;\nqreg q[2];\ncreg c0[1];\ncreg c1[1];\n"
            "x q[1];\nmeasure q[1] -> c0[0];\nif(c0==1) x q[0];\n"
        )
        job = CompileJob.create(qasm, get_device("ibm_qx5"))
        res = CompileService(CompileCache()).submit(job)
        assert res.status == "invalid" and res.artifact is None
        assert res.error == (
            "QasmError: line 6, col 1: measure target 'c0[0]' is not "
            "qubit 1's bit c1[0]"
        )

    def test_memory_hit_artifact_is_the_callers_own(self):
        # Regression: a memory hit handed out the cache's own dict, so a
        # caller's edit reached every later hit (JobResult.metrics and
        # result() included) while the disk tier kept the true bytes.
        service = CompileService(CompileCache())
        first = service.submit(_job(seed=5))
        hit = service.submit(_job(seed=5))
        assert hit.cache_hit == "memory"
        hit.artifact["metrics"]["native_gates"] = -1
        hit.artifact["routing"]["added_swaps"] = 999
        third = service.submit(_job(seed=5))
        assert third.cache_hit == "memory"
        assert third.artifact == first.artifact
        assert third.metrics["native_gates"] == \
            first.artifact["metrics"]["native_gates"] > 0
        assert third.result().added_swaps == \
            first.artifact["routing"]["added_swaps"]

    def test_memory_hit_result_is_fresh(self):
        # result() on a memory hit is built around the compile's held
        # gates: editing one result's containers reaches no later hit.
        service = CompileService(CompileCache())
        first = service.submit(_job(seed=6))
        expected = first.result()
        hit = service.submit(_job(seed=6))
        assert hit.cache_hit == "memory" and hit.gates is not None
        edited = hit.result()
        edited.native.gates.clear()
        edited.routed.circuit.gates.reverse()
        edited.original.gates.pop()
        edited.schedule.items.clear()
        again = service.submit(_job(seed=6)).result()
        assert again.native == expected.native
        assert again.routed.circuit == expected.routed.circuit
        assert again.original == expected.original
        assert again.schedule.items == expected.schedule.items
        assert len(again.schedule.items) == len(again.native.gates) > 0

    def test_no_cache_service(self):
        service = CompileService(cache=None)
        a = service.submit(_job(seed=4))
        b = service.submit(_job(seed=4))
        assert a.ok and b.ok
        assert b.cache_hit is None  # nothing to hit


class TestSubmitBatch:
    def test_deterministic_ordering(self):
        service = CompileService(CompileCache())
        jobs = [_job(seed=s, job_id=f"job{s}") for s in range(6)]
        results = service.submit_batch(jobs)
        assert [r.job_id for r in results] == [j.job_id for j in jobs]

    def test_in_batch_dedup(self):
        service = CompileService(CompileCache())
        jobs = [_job(seed=9, job_id="a"), _job(seed=9, job_id="b")]
        results = service.submit_batch(jobs)
        assert results[0].ok and results[1].ok
        assert results[0].cache_hit is None
        assert results[1].cache_hit == "batch"
        assert results[0].artifact == results[1].artifact
        assert service.stats()["service"]["batch_dedup_hits"] == 1

    def test_in_batch_duplicates_own_their_artifacts(self):
        # Regression: a deduplicated job shared its twin's artefact dict.
        service = CompileService(CompileCache())
        jobs = [_job(seed=9, job_id="a"), _job(seed=9, job_id="b")]
        first, second = service.submit_batch(jobs)
        assert second.cache_hit == "batch"
        expected = canonical_json(first.artifact)
        second.artifact["metrics"]["native_gates"] = -1
        second.artifact["schedule"]["order"].reverse()
        assert canonical_json(first.artifact) == expected

    def test_pool_path_matches_inline(self):
        jobs = [_job(seed=s, job_id=f"j{s}") for s in range(4)]
        inline = CompileService(CompileCache()).submit_batch(jobs)
        pooled = CompileService(CompileCache(), max_workers=2).submit_batch(
            jobs
        )
        assert all(r.ok for r in pooled)
        for a, b in zip(inline, pooled):
            assert a.artifact == b.artifact

    def test_warm_batch_hits_cache(self):
        service = CompileService(CompileCache(), max_workers=2)
        jobs = [_job(seed=s) for s in range(3)]
        service.submit_batch(jobs)
        warm = service.submit_batch(jobs)
        assert all(r.cache_hit == "memory" for r in warm)

    def test_mixed_good_and_bad_jobs(self):
        service = CompileService(CompileCache())
        bad = CompileJob(
            qasm="nope",
            device=get_device("ibm_qx4").to_dict(),
            config=PassConfig(),
            job_id="bad",
        )
        results = service.submit_batch([_job(job_id="good"), bad])
        assert results[0].ok
        assert results[1].status == "invalid"


class TestBadBudgets:
    """A bad time budget fails its own job as ``invalid``, nothing more."""

    @pytest.mark.parametrize("field", ["timeout", "deadline"])
    @pytest.mark.parametrize(
        "value", [-1.0, float("nan"), float("inf"), True], ids=repr
    )
    def test_job_rejects_bad_budget(self, field, value):
        with pytest.raises(ValueError, match=field):
            _job(**{field: value})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_deadline_fails_only_its_job(self, workers):
        # Regression: the deadline was built outside run_payload's try,
        # so inline the whole batch raised, and in the pool the worker
        # died and the job was retried.
        bad = _job(seed=3, job_id="bad")
        bad.deadline = -1.0  # after construction, which validates it
        service = CompileService(CompileCache(), max_workers=workers)
        try:
            results = service.submit_batch([bad, _job(seed=4, job_id="good")])
            pool = service.stats()["pool"] or {}
        finally:
            service.close()
        assert [r.status for r in results] == ["invalid", "ok"]
        assert results[0].attempts == 1
        assert "deadline budget" in results[0].error
        assert pool.get("worker_recycles", 0) == 0


class TestFaultTolerance:
    """Timeout and crash handling on the pool path (worker faults)."""

    def test_per_job_timeout(self):
        service = CompileService(CompileCache(), max_workers=2)
        slow = _job(job_id="slow")
        slow.timeout = 0.3
        res = service.submit_batch(
            [slow], fault_plan=_worker_fault("hang", delay=10)
        )[0]
        assert res.status == "timeout" and not res.ok
        assert "0.3s compute budget" in res.error

    def test_crash_exhausts_retries(self):
        service = CompileService(CompileCache(), max_workers=2, retries=1)
        crasher = _job(job_id="crash")
        res = service.submit_batch(
            [crasher], fault_plan=_worker_fault("crash")
        )[0]
        assert res.status == "crashed"
        assert "crashed" in res.error
        assert res.attempts == 2
        assert service.stats()["service"]["crash_failures"] == 1

    def test_compute_budget_measured_from_worker_start(self):
        # Regression: per-job budgets used to be measured from batch
        # dispatch, so jobs queued behind a full pool were billed for
        # their queue wait.  Two workers, four ~0.5s jobs, 0.9s budget:
        # with dispatch-measured budgets the second wave sits ~0.5s in
        # the queue and times out spuriously; with worker-start budgets
        # all four complete.
        service = CompileService(CompileCache(), max_workers=2)
        jobs = []
        for s in range(4):
            job = _job(seed=20 + s, job_id=f"w{s}")
            job.timeout = 0.9
            jobs.append(job)
        results = service.submit_batch(
            jobs, fault_plan=_worker_fault("hang", delay=0.5)
        )
        assert all(r.ok for r in results), [
            (r.job_id, r.status, r.error) for r in results
        ]

    def test_crash_does_not_starve_other_jobs(self):
        service = CompileService(CompileCache(), max_workers=2, retries=1)
        crasher = _job(job_id="crash")
        good = _job(seed=5, job_id="good")
        results = service.submit_batch(
            [crasher, good], fault_plan=_worker_fault("crash", job_id="crash")
        )
        by_id = {r.job_id: r for r in results}
        assert by_id["crash"].status == "crashed"
        assert by_id["good"].ok


class TestClientMetadata:
    def test_metadata_cannot_kill_a_one_worker_service(self):
        # Job metadata is client data (the gateway passes it through), so
        # no key of it may steer the compile.  run_payload once obeyed a
        # "crash" hook key and exited the calling process; the check runs
        # in a subprocess so a regression fails this test instead of
        # killing the runner.
        hook_key = "__" + "test_hook" + "__"
        code = textwrap.dedent(f"""
            from repro.core.pipeline import PassConfig
            from repro.devices import get_device
            from repro.qasm import to_openqasm
            from repro.service import CompileJob, CompileService
            from repro.workloads import random_circuit

            qasm = to_openqasm(random_circuit(5, 12, seed=1))
            job = CompileJob.create(
                qasm, get_device("ibm_qx4"), PassConfig(router="sabre"),
                metadata={{{hook_key!r}: "crash"}},
            )
            print(CompileService(None, max_workers=1).submit(job).status)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestMonotonicClock:
    """Queue-wait timing uses the monotonic clock end to end.

    Regression tests for the wall/monotonic clock mix: dispatch used to
    be stamped with ``time.time()`` while durations came from
    ``time.perf_counter()``, and a ``max(0.0, ...)`` clamp hid the
    resulting negative queue waits whenever the wall clock stepped.
    """

    def test_run_payload_reports_monotonic_start(self):
        before = time.monotonic()
        outcome = run_payload(_job(seed=11).payload())
        after = time.monotonic()
        # Pre-fix outcomes carried a wall-clock "started_at" instead.
        assert "started_at" not in outcome
        assert before <= outcome["started_mono"] <= after

    def test_run_payload_echoes_dispatch_mono(self):
        mark = time.monotonic()
        outcome = run_payload(_job(seed=11).payload(), dispatch_mono=mark)
        assert outcome["dispatch_mono"] == mark
        assert outcome["started_mono"] >= mark

    def test_queue_wait_immune_to_wall_clock_jumps(self, monkeypatch):
        # A wall clock stepping forward ~500s per reading (NTP slew,
        # suspend/resume) must not leak into queue_wait_s.  Pre-fix,
        # dispatch was time.time() and the worker's start was also
        # time.time(), so a jump between the two readings showed up as
        # hundreds of seconds of phantom queue wait.
        real_time = time.time
        jump = [0.0]

        def jumping_time():
            jump[0] += 500.0
            return real_time() + jump[0]

        monkeypatch.setattr(time, "time", jumping_time)
        service = CompileService(CompileCache())
        res = service.submit(_job(seed=12))
        assert res.ok
        assert 0.0 <= res.metrics["queue_wait_s"] < 10.0

    def test_negative_wait_not_clamped(self):
        # _finish must report what the clocks say; the old max(0.0, ...)
        # clamp silently converted clock bugs into a zero wait.
        service = CompileService(CompileCache())
        job = _job(seed=13)
        outcome = run_payload(job.payload())
        res = service._finish(
            job, job.key(), dict(outcome, started_mono=outcome["started_mono"] - 1.0),
            outcome["started_mono"], attempts=1,
        )
        assert res.metrics["queue_wait_s"] == pytest.approx(-1.0, abs=0.01)

    def test_batch_queue_waits_never_negative(self):
        service = CompileService(CompileCache(), max_workers=2)
        jobs = [_job(seed=s, job_id=f"q{s}") for s in range(4)]
        results = service.submit_batch(jobs)
        assert all(r.ok for r in results)
        for res in results:
            assert res.metrics["queue_wait_s"] >= 0.0
        assert service.stats()["service"]["queue_wait_seconds"] >= 0.0


class TestTracedBatches:
    def test_pool_batch_absorbs_worker_spans(self):
        tracer = Tracer()
        service = CompileService(CompileCache(), max_workers=2)
        jobs = [_job(seed=s, job_id=f"t{s}") for s in range(3)]
        with use_tracer(tracer):
            results = service.submit_batch(jobs)
        assert all(r.ok for r in results)
        events = tracer.finished()
        job_roots = [e for e in events if e["name"] == "job"]
        assert len(job_roots) == 3
        # Worker-side pipeline stages crossed the process boundary.
        passes = {e.get("pass") for e in events}
        assert {"placement", "routing", "schedule"} <= passes
        # Cache lookups are parent-side spans in the same tracer.
        assert "cache" in passes

    def test_trace_report_shape(self):
        tracer = Tracer()
        service = CompileService(CompileCache(), max_workers=2)
        jobs = [_job(seed=s, job_id=f"r{s}") for s in range(3)]
        with use_tracer(tracer):
            results = service.submit_batch(jobs)
        assert all(r.ok for r in results)
        report = service.trace_report(tracer)
        assert report["schema"] == 1
        assert {row["job_id"] for row in report["jobs"]} == {"r0", "r1", "r2"}
        for row in report["jobs"]:
            assert row["total_s"] > 0
            assert "routing" in row["passes"]
            # Stage spans cover most of the job, never more than all of it.
            covered = sum(row["passes"].values())
            assert 0 < covered <= row["total_s"] * 1.01
        assert report["stats"]["service"]["fresh_compiles"] == 3

    def test_untraced_batch_ships_no_spans(self):
        outcome = run_payload(_job(seed=14).payload(), trace=False)
        assert "spans" not in outcome


class TestStats:
    def test_counters(self):
        service = CompileService(CompileCache())
        jobs = [_job(seed=s) for s in range(2)]
        service.submit_batch(jobs)
        service.submit_batch(jobs)
        stats = service.stats()
        svc = stats["service"]
        assert svc["jobs_submitted"] == 4
        assert svc["batches"] == 2
        assert svc["fresh_compiles"] == 2
        assert svc["cache_hits"] == 2
        assert svc["hit_rate"] == pytest.approx(0.5)
        assert stats["cache"]["memory_entries"] == 2

    def test_job_result_to_dict(self):
        service = CompileService(CompileCache())
        res = service.submit(_job(seed=6))
        data = res.to_dict()
        assert data["status"] == "ok"
        assert "artifact" not in data
        assert "added_swaps" in data["metrics"]
        full = res.to_dict(include_artifact=True)
        assert full["artifact"]["routing"]["added_swaps"] >= 0


class TestClose:
    def test_close_is_idempotent(self):
        service = CompileService(CompileCache(), max_workers=2)
        service.submit_batch([_job(seed=s) for s in range(2)])
        service.close()
        service.close()  # second close is a no-op, not an error

    def test_service_usable_again_after_close(self):
        service = CompileService(CompileCache(), max_workers=2)
        assert service.submit_batch([_job(seed=7)])[0].ok
        service.close()
        # A new batch lazily respawns the pool.
        assert service.submit_batch([_job(seed=8)])[0].ok
        service.close()

    def test_concurrent_close_during_inflight_batch(self):
        import threading

        service = CompileService(CompileCache(), max_workers=2)
        jobs = [_job(seed=20 + i, job_id=f"slow{i}") for i in range(4)]
        closer = threading.Timer(0.15, service.close)
        closer.start()
        try:
            results = service.submit_batch(
                jobs, fault_plan=_worker_fault("hang", delay=0.5)
            )
        finally:
            closer.join()
        # No exception escaped, and every job still reached exactly one
        # terminal status (completed before the close, or reported as
        # crashed by the shutdown mop-up).
        from repro.service import JOB_STATUSES

        assert len(results) == len(jobs)
        assert all(r.status in JOB_STATUSES for r in results)
        service.close()


class TestBatchEvents:
    def test_on_event_lifecycle_ordering(self):
        events = []
        service = CompileService(CompileCache(), max_workers=2)
        jobs = [_job(seed=30 + i, job_id=f"e{i}") for i in range(3)]
        results = service.submit_batch(
            jobs, on_event=lambda i, kind, info=None: events.append((i, kind))
        )
        service.close()
        assert all(r.ok for r in results)
        for i in range(len(jobs)):
            kinds = [kind for j, kind in events if j == i]
            assert kinds[-1] == "done"
            assert kinds.index("started") < kinds.index("done")

    def test_on_event_fires_done_for_cache_hits(self):
        events = []
        service = CompileService(CompileCache())
        job = _job(seed=31)
        service.submit(job)
        service.submit_batch(
            [job], on_event=lambda i, kind, info=None:
            events.append((kind, info))
        )
        kinds = [kind for kind, _ in events]
        assert kinds == ["done"]
        assert events[0][1].cache_hit == "memory"
        service.close()

    def test_on_event_exceptions_do_not_kill_the_batch(self):
        def bomb(i, kind, info=None):
            raise RuntimeError("observer bug")

        service = CompileService(CompileCache())
        results = service.submit_batch([_job(seed=32)], on_event=bomb)
        assert results[0].ok
        service.close()
