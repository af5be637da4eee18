"""The compile service: cache-aware single and parallel batch compiles.

:class:`CompileService` turns :func:`repro.core.pipeline.compile_circuit`
into a servable engine:

* :meth:`CompileService.submit` — one job, in-process, through the
  content-addressed cache;
* :meth:`CompileService.submit_batch` — a list of jobs fanned across
  the service's warm worker pool with per-job compute budgets, an
  overall batch deadline, bounded retry-with-fallback when a worker
  process dies,
  in-batch deduplication of identical requests, and **deterministic
  result ordering** (results[i] always corresponds to jobs[i], whatever
  order the workers finish in);
* :meth:`CompileService.stats` — a counter snapshot of everything the
  service has done (jobs, cache tiers, compile seconds, retries).

Workers receive plain-dict payloads (:meth:`CompileJob.payload`) and
return plain-dict outcomes, so nothing un-picklable ever crosses the
process boundary; the parent owns the cache, so a batch warms it for
every later request regardless of which worker compiled what.

Parallel batches run on a **persistent warm worker pool**
(:class:`repro.service.pool.WarmPool`): workers are forked once per
service, preload the device library and the native A* kernel in their
initializer, and are reused across batches and retry rounds.  Jobs are
dispatched in chunks; each worker streams ``start``/``done`` events back
over its own lightweight channel (there is no per-batch
``multiprocessing.Manager`` process any more).

Resilience (see ``docs/resilience.md``): every job ends in exactly one
of the terminal statuses ``ok | degraded | timeout | crashed | invalid``
(:data:`repro.service.jobs.JOB_STATUSES`) — a batch never loses a job.
Per-job budgets are **compute budgets measured from worker start** (the
worker posts its start instant on the pool's event channel), not from
batch dispatch, so jobs queued behind a full pool are not billed for
their queue wait.  A separate ``batch_timeout`` bounds the whole batch.
A worker that crashes or is abandoned on a hang is recycled alone —
surviving warm workers keep their preloaded state.  Crashed jobs are
retried down the router fallback chain
(:func:`repro.core.pipeline.fallback_chain`) instead of blindly: the
pool reports which job the dead worker was actually running, so only
that job is blamed (and degraded on retry) while chunk-mates that never
started are re-queued with their original router at no attempt cost.
Worker-shipped artefacts are validated
(:func:`repro.service.artifact.validate_artifact`) before they can reach
the cache.  Only clean ``ok`` artefacts are ever cached — a degraded
compile must not impersonate the requested configuration.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter, OrderedDict, deque
from contextlib import nullcontext
from typing import Callable, Iterable, Sequence

from ..core.pipeline import PassConfig, compile_with_config, fallback_chain
from ..devices.device import Device
from ..obs import Tracer, current_tracer, trace_span, use_tracer
from ..qasm import parse_qasm
from ..resilience.deadline import Deadline, DeadlineExceeded
from ..resilience.faults import (
    FaultInjected,
    FaultPlan,
    corrupt_point,
    fault_point,
    use_faults,
)
from .artifact import (
    artifact_metrics,
    result_gates,
    result_to_artifact,
    validate_artifact,
)
from .cache import CacheStageStore, CompileCache, _json_copy
from .jobs import CompileJob, JobResult
from .keys import canonical_json
from .pool import WarmPool

__all__ = ["CompileService", "run_payload"]

#: Parent-side poll interval of the batch wait loop, seconds.
_POLL_INTERVAL = 0.02

#: Upper bound on dispatch chunk size (load balance beats IPC savings).
_MAX_CHUNK = 8

#: The devices of this process's jobs, one per distinct device dict
#: (keyed on its canonical JSON), least recently used first.  A
#: :class:`Device` holds its hop matrix and routing tables, so jobs on
#: the same device build them once per process, inline or in a pool
#: worker, instead of once per job.  At most :data:`_DEVICE_LIMIT`.
_DEVICES: "OrderedDict[str, Device]" = OrderedDict()
_DEVICE_LIMIT = 8
_DEVICES_LOCK = threading.Lock()


def _job_device(data) -> Device:
    """The process's :class:`Device` for the device dict ``data``."""
    key = canonical_json(data)
    with _DEVICES_LOCK:
        device = _DEVICES.get(key)
        if device is not None:
            _DEVICES.move_to_end(key)
            return device
    device = Device.from_dict(data)
    with _DEVICES_LOCK:
        _DEVICES[key] = device
        if len(_DEVICES) > _DEVICE_LIMIT:
            _DEVICES.popitem(last=False)
    return device


def run_payload(
    payload: dict,
    *,
    dispatch_mono: float | None = None,
    trace: bool = False,
    stage_store: CacheStageStore | None = None,
) -> dict:
    """Compile one job payload; always returns, never raises.

    Module-level so pool workers can import it by name.

    Resilience keys the engine may add to a payload:

    * ``faults`` — a :meth:`FaultPlan.to_dict`, installed around the
      compile with this job's id (fault injection crosses the process
      boundary here);
    * ``deadline_s`` — per-job compute budget in seconds; the worker
      starts the clock on **its own** entry, so queue wait is free;
    * ``batch_deadline`` — a :meth:`Deadline.to_dict` (absolute
      monotonic instant, valid across processes) bounding the batch;
    * ``router_override`` — route with this router instead of the
      config's (a fallback retry after a crash); the result is marked
      degraded.
    * ``stage_cache_dir`` — the parent cache's disk directory.  A pool
      worker opens its own disk-only view of it
      (:class:`CompileCache` with the memory tier off) and probes the
      per-stage entries before running each stage, then ships the
      per-stage hit/miss counters back in the outcome's
      ``stage_counters`` for the parent to merge.  Inline callers pass
      ``stage_store`` directly instead.  Fault-plan runs never touch
      the stage cache.

    The outcome's ``status`` is one of ``ok | degraded | timeout |
    crashed | invalid`` — the same taxonomy the parent reports.  A
    completed compile run without a fault plan also carries ``gates``,
    its :func:`~repro.service.artifact.result_gates`, which the inline
    caller hands to the cache and the :class:`JobResult`; pool workers
    drop them and ship the artefact alone.

    Args:
        payload: A :meth:`CompileJob.payload` dict, possibly augmented.
        dispatch_mono: The dispatcher's :func:`time.monotonic` reading
            at hand-off.  ``time.monotonic`` is system-wide, so the
            worker's own reading on the same clock yields the queue wait
            directly — no wall clock (NTP steps, suspend) ever enters
            the metric.  Echoed back so the parent needs no bookkeeping.
        trace: Record pass-level spans for this compile and ship them
            back in the outcome's ``spans`` list for the parent tracer
            to absorb.
    """
    started_mono = time.monotonic()
    plan = None
    if payload.get("faults"):
        plan = FaultPlan.from_dict(payload["faults"])
    local_store = None
    if plan is not None:
        # Fault runs must never read or warm the stage cache: injected
        # failures and corruption hooks would otherwise interleave with
        # real traffic's intermediates.
        stage_store = None
    elif stage_store is None and payload.get("stage_cache_dir"):
        local_store = CacheStageStore(
            CompileCache(
                max_memory_entries=0,
                directory=payload["stage_cache_dir"],
            )
        )
        stage_store = local_store
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    try:
        # Inside the try: a bad budget fails this job as invalid, never
        # the batch, the gateway's micro-batch or the pool worker.
        deadline = None
        if payload.get("deadline_s") is not None:
            deadline = Deadline.after(payload["deadline_s"])
        if payload.get("batch_deadline"):
            batch_dl = Deadline.from_dict(payload["batch_deadline"])
            if deadline is None \
                    or batch_dl.expires_mono < deadline.expires_mono:
                deadline = batch_dl
        with use_faults(plan, payload.get("job_id", "")) \
                if plan is not None else nullcontext():
            fault_point("worker")
            with use_tracer(tracer) if tracer is not None else nullcontext():
                with trace_span(
                    "job", pass_="service", job_id=payload.get("job_id", "")
                ):
                    fault_point("parse")
                    circuit = parse_qasm(payload["qasm"])
                    device = _job_device(payload["device"])
                    config = PassConfig.from_dict(payload["config"])
                    requested = config.router
                    override = payload.get("router_override")
                    if override and override != requested:
                        run_cfg = config.to_dict()
                        run_cfg["router"] = override
                        run_cfg["router_options"] = {}
                        run_config = PassConfig.from_dict(run_cfg)
                    else:
                        override = None
                        run_config = config
                    result = compile_with_config(
                        circuit, device, run_config, deadline=deadline,
                        stage_store=stage_store,
                    )
                    if override is not None:
                        # A fallback retry: record the full degradation
                        # path from the *originally requested* router.
                        inner = result.metadata.get("resilience")
                        path = [requested] + (
                            inner["fallback_path"] if inner else [override]
                        )
                        failures = [{
                            "router": requested,
                            "kind": "retry",
                            "error": "previous attempt crashed or timed out",
                        }] + (inner["failures"] if inner else [])
                        result.metadata["resilience"] = {
                            "degraded": True,
                            "requested_router": requested,
                            "router_used": result.router,
                            "fallback_path": path,
                            "failures": failures,
                        }
                    fault_point("artifact")
                    artifact = result_to_artifact(result, config=config)
                    artifact = corrupt_point("artifact", artifact)
        degraded = bool(
            result.metadata.get("resilience", {}).get("degraded")
        )
        outcome = {
            "status": "degraded" if degraded else "ok",
            "artifact": artifact,
            "compile_seconds": time.perf_counter() - t0,
        }
        if plan is None:
            # A fault plan may have corrupted the artefact, which these
            # gates would then contradict.
            outcome["gates"] = result_gates(result)
    except DeadlineExceeded as exc:
        outcome = {
            "status": "timeout",
            "error": f"{type(exc).__name__}: {exc}",
            "compile_seconds": time.perf_counter() - t0,
        }
    except FaultInjected as exc:
        outcome = {
            "status": "crashed",
            "error": f"{type(exc).__name__}: {exc}",
            "compile_seconds": time.perf_counter() - t0,
        }
    except Exception as exc:  # noqa: BLE001 — report, don't kill the pool
        outcome = {
            "status": "invalid",
            "error": f"{type(exc).__name__}: {exc}",
            "compile_seconds": time.perf_counter() - t0,
        }
    outcome["started_mono"] = started_mono
    if local_store is not None:
        # Worker-local counters; the parent owns the aggregate (inline
        # stores hit the parent cache directly and ship nothing).
        counters = local_store.cache.stage_counters()
        if counters:
            outcome["stage_counters"] = counters
    if dispatch_mono is not None:
        outcome["dispatch_mono"] = dispatch_mono
    if tracer is not None:
        outcome["spans"] = tracer.finished()
        outcome["trace_counters"] = tracer.counters()
    return outcome


#: Sentinel distinguishing "no cache argument" from an explicit ``None``.
_DEFAULT_CACHE = object()


def _NO_EMIT(i: int, kind: str, info=None) -> None:  # noqa: N802
    """The free no-observer path of ``submit_batch(on_event=...)``."""


class CompileService:
    """Compile jobs against devices, with caching and parallel batches.

    Args:
        cache: The artefact cache.  Omitted: a fresh in-memory-only
            :class:`CompileCache`.  An explicit ``None`` disables
            caching entirely (every submit compiles fresh; batches
            still dedup identical requests internally).
        max_workers: Default parallelism of :meth:`submit_batch`
            (default: the machine's CPU count).
        retries: How many times a batch re-dispatches jobs whose worker
            process crashed (or shipped a corrupt artefact) before
            reporting them as ``crashed``.  Retries walk the router
            fallback chain.
        default_timeout: Per-job compute budget in seconds applied when
            neither the job nor the batch call specifies one (``None``:
            unlimited).  Measured from worker start, not from dispatch.
        default_deadline: Cooperative routing deadline in seconds handed
            to every job that does not override it (``None``: no
            deadline).  Routers poll it and degrade through the fallback
            chain instead of being killed.
        fault_plan: A :class:`FaultPlan` injected into every batch
            (testing/chaos runs; ``None``: no faults).
        stage_cache: Probe and populate the cache's per-stage entries
            (placement / routing / lower / schedule) on full-key misses,
            so e.g. a router sweep re-keys only the stages downstream of
            the changed knob.  Inline compiles share the service cache's
            stage namespace directly; pool workers probe the disk tier
            via the payload's ``stage_cache_dir`` (a memory-only service
            cache keeps stage entries parent-side only).  Default on;
            moot when ``cache`` is ``None``.

    The service owns one :class:`~repro.service.pool.WarmPool`, created
    lazily on the first pooled batch and reused for every batch after
    it.  Call :meth:`close` (or use the service as a context manager)
    to stop the workers; an unclosed service's pool is torn down by a
    GC finalizer, and the workers are daemonic either way.
    """

    def __init__(
        self,
        cache: CompileCache | None = _DEFAULT_CACHE,  # type: ignore[assignment]
        *,
        max_workers: int | None = None,
        retries: int = 1,
        default_timeout: float | None = None,
        default_deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
        stage_cache: bool = True,
    ) -> None:
        self.cache = CompileCache() if cache is _DEFAULT_CACHE else cache
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.retries = int(retries)
        self.default_timeout = default_timeout
        self.default_deadline = default_deadline
        self.fault_plan = fault_plan
        self.stage_cache = bool(stage_cache)
        self._pool: WarmPool | None = None
        self._pool_lock = threading.Lock()
        self._counters: Counter = Counter()
        self._compile_seconds = 0.0
        self._queue_wait_seconds = 0.0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> WarmPool:
        with self._pool_lock:
            if self._pool is None or self._pool.closed:
                self._pool = WarmPool()
                self._counters["pools_created"] += 1
            else:
                self._counters["pool_reuse_batches"] += 1
            return self._pool

    def prewarm(self, workers: int | None = None, *,
                timeout: float = 60.0) -> list[dict]:
        """Spawn the worker pool now and wait until every worker is ready.

        Separates one-time pool start-up (fork + device-library import +
        native-kernel resolve) from steady-state dispatch, e.g. before a
        timed benchmark phase or ahead of expected traffic.  Returns the
        workers' preload reports.
        """
        pool = self._ensure_pool()
        with trace_span("pool.prewarm", pass_="pool"):
            pool.ensure(workers or self.max_workers)
            return pool.wait_ready(timeout)

    def close(self) -> None:
        """Shut the warm pool down.  The service stays usable; the next
        pooled batch starts a fresh pool.

        Idempotent and safe to call from any thread, including while a
        batch is in flight on another thread: the batch observes the
        closed pool, stops dispatching, and reports every job it could
        not finish with a terminal ``crashed`` status instead of
        deadlocking or leaking an exception.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Single submit
    # ------------------------------------------------------------------

    def submit(self, job: CompileJob) -> JobResult:
        """Compile one job in-process (cache first, then fresh).

        Raises:
            ValueError: when the service's fault plan contains ``crash``
                or ``hang`` faults — those would kill or stall *this*
                process; use :meth:`submit_batch`, which isolates them
                in pool workers.
        """
        plan = self.fault_plan
        if plan is not None and plan.has_action("crash", "hang"):
            raise ValueError(
                "crash/hang fault plans cannot run in-process; "
                "use submit_batch"
            )
        self._counters["jobs_submitted"] += 1
        key = job.key()
        hit = self._try_cache(job, key)
        if hit is not None:
            return hit
        dispatch_mono = time.monotonic()
        payload = self._augment(
            job.payload(),
            deadline=self._effective_deadline(job, self.default_deadline),
            batch_deadline=None, plan=plan,
        )
        outcome = run_payload(
            payload,
            dispatch_mono=dispatch_mono,
            trace=current_tracer().enabled,
            stage_store=self._stage_store(plan),
        )
        return self._finish(job, key, outcome, dispatch_mono, attempts=1)

    def _stage_store(self, plan: FaultPlan | None) -> CacheStageStore | None:
        """The parent-side stage store for inline compiles (``None``
        when stage caching is off, uncached, or a fault plan is live)."""
        if not self.stage_cache or self.cache is None or plan is not None:
            return None
        return CacheStageStore(self.cache)

    # ------------------------------------------------------------------
    # Batch submit
    # ------------------------------------------------------------------

    def submit_batch(
        self,
        jobs: Iterable[CompileJob],
        *,
        max_workers: int | None = None,
        timeout: float | None = None,
        retries: int | None = None,
        deadline: float | None = None,
        batch_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        on_event: Callable[[int, str, object], None] | None = None,
    ) -> list[JobResult]:
        """Compile ``jobs``, fanning cache misses across worker processes.

        Args:
            jobs: The requests, in the order results are returned.
            max_workers: Parallelism for this batch (default: the
                service's ``max_workers``; ``1`` runs in-process).
            timeout: Per-job **compute budget** in seconds, measured
                from the instant the worker starts the job — queue wait
                behind a full pool is free.  A job's own ``timeout``
                takes precedence.  Timed-out jobs report
                ``status == "timeout"`` (the worker is abandoned, not
                interrupted).
            retries: Crash-retry budget for this batch (default: the
                service's ``retries``).  Retries walk the router
                fallback chain, so a router that crashes its worker is
                replaced by a cheaper one instead of crashing again.
            deadline: Cooperative routing deadline in seconds per job
                (default: the service's ``default_deadline``).  Routers
                poll it and degrade through the fallback chain.
            batch_timeout: Overall wall-clock bound on the whole batch,
                measured from this call; when it expires, every
                unfinished job reports ``status == "timeout"``.
            fault_plan: Fault plan for this batch (default: the
                service's plan).
            on_event: Optional per-job lifecycle callback
                ``on_event(i, kind, info)`` where ``i`` indexes into
                ``jobs``: ``("started", None)`` when a worker (or the
                inline path) begins the job, ``("retrying", message)``
                when a blamed crash re-queues it, and ``("done",
                JobResult)`` the moment its terminal result exists —
                before the batch as a whole returns, which is what the
                async gateway streams job events from.  Exceptions it
                raises are swallowed; it runs on the batch thread and
                must be cheap.

        Returns:
            One :class:`JobResult` per job, positionally aligned with
            the input regardless of completion order.  Every result has
            a terminal status — a batch never loses a job.
        """
        jobs = list(jobs)
        workers = self.max_workers if max_workers is None else max_workers
        budget = self.retries if retries is None else int(retries)
        plan = self.fault_plan if fault_plan is None else fault_plan
        job_deadline = (
            self.default_deadline if deadline is None else deadline
        )
        batch_dl = (
            Deadline.after(batch_timeout) if batch_timeout is not None
            else None
        )
        self._counters["jobs_submitted"] += len(jobs)
        self._counters["batches"] += 1

        if on_event is None:
            emit = _NO_EMIT
        else:
            def emit(i: int, kind: str, info=None) -> None:
                try:
                    on_event(i, kind, info)
                except Exception:  # noqa: BLE001 — observers can't kill a batch
                    pass

        keys = [job.key() for job in jobs]
        results: list[JobResult | None] = [None] * len(jobs)

        # Tier lookups and in-batch dedup: identical requests compile once.
        pending: list[int] = []
        first_for_key: dict[str, int] = {}
        duplicate_of: dict[int, int] = {}
        for i, (job, key) in enumerate(zip(jobs, keys)):
            hit = self._try_cache(job, key)
            if hit is not None:
                results[i] = hit
                emit(i, "done", hit)
            elif key in first_for_key:
                duplicate_of[i] = first_for_key[key]
                self._counters["batch_dedup_hits"] += 1
            else:
                first_for_key[key] = i
                pending.append(i)

        if pending:
            # Pool placement: crash/hang fault plans must never run in
            # this process, and real parallelism needs more than one
            # pending job.  A single-job batch runs inline — spawning a
            # worker for it buys nothing — with any hard timeout applied
            # as a *cooperative* deadline (the compile degrades through
            # the fallback chain instead of being abandoned; only a pool
            # can kill a truly hung worker, and hangs come from lethal
            # plans, which still force the pool).
            lethal = plan is not None and plan.has_action("crash", "hang")
            needs_pool = lethal or (workers > 1 and len(pending) > 1)
            if not needs_pool:
                trace = current_tracer().enabled
                inline_store = self._stage_store(plan)
                for i in pending:
                    if batch_dl is not None and batch_dl.expired():
                        self._counters["timeouts"] += 1
                        results[i] = self._timeout_result(
                            jobs[i], keys[i], None, 1,
                            reason="batch deadline expired",
                        )
                        emit(i, "done", results[i])
                        continue
                    inline_deadline = self._effective_deadline(
                        jobs[i], job_deadline
                    )
                    hard = self._job_timeout(jobs[i], timeout)
                    if hard is not None:
                        inline_deadline = (
                            hard if inline_deadline is None
                            else min(inline_deadline, hard)
                        )
                    dispatch_mono = time.monotonic()
                    payload = self._augment(
                        jobs[i].payload(), deadline=inline_deadline,
                        batch_deadline=batch_dl, plan=plan,
                    )
                    emit(i, "started")
                    outcome = run_payload(
                        payload, dispatch_mono=dispatch_mono, trace=trace,
                        stage_store=inline_store,
                    )
                    results[i] = self._finish(
                        jobs[i], keys[i], outcome, dispatch_mono, attempts=1
                    )
                    emit(i, "done", results[i])
            else:
                self._run_pool(
                    jobs, keys, pending, results, max(workers, 1), timeout,
                    budget, job_deadline, batch_dl, plan, emit,
                )

        for i, src in duplicate_of.items():
            base = results[src]
            assert base is not None
            results[i] = JobResult(
                job_id=jobs[i].job_id,
                key=keys[i],
                status=base.status,
                cache_hit="batch" if base.ok else base.cache_hit,
                # Each result owns its artefact, as every cache hit does.
                artifact=_json_copy(base.artifact),
                error=base.error,
                attempts=base.attempts,
                metrics={**base.metrics, "queue_wait_s": 0.0, "compile_s": 0.0},
                metadata=jobs[i].metadata,
                gates=base.gates,
            )
            emit(i, "done", results[i])

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _run_pool(
        self,
        jobs: Sequence[CompileJob],
        keys: Sequence[str],
        pending: list[int],
        results: list[JobResult | None],
        workers: int,
        timeout: float | None,
        budget: int,
        job_deadline: float | None,
        batch_dl: Deadline | None,
        plan: FaultPlan | None,
        emit: Callable[..., None] = None,  # type: ignore[assignment]
    ) -> None:
        """Dispatch ``pending`` job indices across the warm worker pool.

        Jobs go out in chunks to idle workers; per-job budgets are
        measured from the ``start`` events workers post on the pool's
        event channel, so queue wait never counts against a job's
        compute budget.  A dead worker is recycled alone: the job it was
        running is blamed (retried down the router fallback chain, up to
        ``budget`` extra attempts), its never-started chunk-mates are
        re-queued with their original router at no attempt cost, and
        every other warm worker keeps running.  A job abandoned on a
        hard timeout takes its worker with it — a hung process can never
        stall the batch or poison the pool.

        :meth:`close` may shut the pool down from another thread while
        this loop runs (the gateway's shutdown path): the loop notices
        the closed pool, stops dispatching, and the mop-up below gives
        every unfinished job a terminal ``crashed`` status.
        """
        if emit is None:
            emit = _NO_EMIT
        pool = self._ensure_pool()
        service_closed = False
        attempts = {i: 0 for i in pending}
        # How many failures are *attributable* to job i itself (the
        # worker died while running it, or it shipped a corrupt
        # artefact).  A job that was collateral damage of a chunk-mate's
        # crash is retried with its original router — degrading it would
        # punish it for someone else's fault.
        blamed = {i: 0 for i in pending}
        last_error: dict[int, str] = {}
        chains = {i: fallback_chain(jobs[i].config.router) for i in pending}
        remaining = set(pending)
        trace = current_tracer().enabled

        queue: deque[int] = deque(sorted(pending))
        token_job: dict[str, int] = {}
        token_dispatch: dict[str, float] = {}
        started_at: dict[str, float] = {}
        active: dict[str, int] = {}  # token -> worker id

        def requeue_blamed(i: int, message: str) -> None:
            blamed[i] += 1
            last_error[i] = message
            if attempts[i] <= budget:
                self._counters["crash_retries"] += 1
                queue.append(i)
                emit(i, "retrying", message)
            # else: stays in remaining -> mop-up reports it crashed

        def requeue_collateral(tokens: list[str]) -> None:
            for token in tokens:
                if active.pop(token, None) is None:
                    continue
                i = token_job[token]
                if i not in remaining:
                    continue
                attempts[i] -= 1  # never ran: not a real attempt
                queue.append(i)

        while queue or active:
            if pool.closed:
                service_closed = True
                active.clear()
                queue.clear()
                break
            if batch_dl is not None and batch_dl.expired():
                # Batch deadline: abandon everything still in flight and
                # recycle the busy workers (an abandoned worker can't be
                # handed new jobs); the mop-up below marks every
                # remaining job timeout.
                for wid in set(active.values()):
                    pool.discard_worker(wid)
                active.clear()
                queue.clear()
                break
            if queue:
                try:
                    busy = len(set(active.values()))
                    idle = pool.idle_workers()
                    want = min(workers, busy + len(queue))
                    if busy + len(idle) < want:
                        with trace_span(
                            "pool.spawn", pass_="pool",
                            n=want - busy - len(idle),
                        ):
                            pool.ensure(want)
                        idle = pool.idle_workers()
                    for wid in idle:
                        if not queue or busy >= workers:
                            break
                        chunk = self._build_chunk(
                            queue, len(pool.alive_workers()), jobs, attempts,
                            blamed, chains, job_deadline, batch_dl, plan,
                            token_job, token_dispatch,
                        )
                        with trace_span(
                            "pool.dispatch", pass_="pool",
                            worker=wid, jobs=len(chunk),
                        ):
                            pool.submit_chunk(wid, chunk, trace)
                        for token, _, _ in chunk:
                            active[token] = wid
                        busy += 1
                except (RuntimeError, KeyError, OSError):
                    # close() won the race mid-dispatch: the pool (or
                    # the worker we just picked) is gone.  Anything
                    # else is a real bug and must propagate.
                    if not pool.closed:
                        raise
                    service_closed = True
                    active.clear()
                    queue.clear()
                    break

            try:
                pool_events = pool.poll(_POLL_INTERVAL)
            except (RuntimeError, OSError, ValueError):
                if not pool.closed:
                    raise
                service_closed = True
                active.clear()
                queue.clear()
                break
            for evt in pool_events:
                kind = evt[0]
                if kind == "start":
                    started_at[evt[2]] = evt[3]
                    i = token_job.get(evt[2])
                    if i is not None and i in remaining:
                        emit(i, "started")
                elif kind == "done":
                    _, wid, token, outcome = evt
                    i = token_job.get(token)
                    if i is None or token not in active:
                        continue  # stale (job already timed out)
                    del active[token]
                    if i not in remaining:
                        continue
                    problem = self._artifact_problem(outcome)
                    if problem is not None:
                        # A corrupt artefact is a worker malfunction
                        # attributable to this job: treat like a crash
                        # (retry down the chain, never cache).
                        self._counters["corrupt_artifacts"] += 1
                        requeue_blamed(i, f"corrupt artifact: {problem}")
                        continue
                    results[i] = self._finish(
                        jobs[i], keys[i], outcome,
                        token_dispatch[token], attempts[i],
                    )
                    remaining.discard(i)
                    emit(i, "done", results[i])
                elif kind == "exit":
                    _, wid, exitcode, current, never_started = evt
                    if current is None and never_started:
                        # The start event was lost with the worker;
                        # chunks run in order, so the head of its queue
                        # is the job that was (about to be) running.
                        current = never_started[0]
                        never_started = never_started[1:]
                    if current is not None and active.pop(
                        current, None
                    ) is not None:
                        i = token_job[current]
                        if i in remaining:
                            requeue_blamed(
                                i,
                                "worker process crashed "
                                f"(exit code {exitcode})",
                            )
                    requeue_collateral(list(never_started))

            # Hard compute budgets, measured from worker start.
            now = time.monotonic()
            for token, wid in list(active.items()):
                i = token_job[token]
                job_timeout = self._job_timeout(jobs[i], timeout)
                started = started_at.get(token)
                if (
                    job_timeout is None
                    or started is None
                    or now - started <= job_timeout
                ):
                    continue
                # Budget exhausted.  The worker cannot be interrupted:
                # abandon the job and recycle that one worker; its
                # unstarted chunk-mates go back in the queue for free.
                _, never_started = pool.discard_worker(wid)
                del active[token]
                self._counters["timeouts"] += 1
                results[i] = self._timeout_result(
                    jobs[i], keys[i], job_timeout, attempts[i]
                )
                remaining.discard(i)
                emit(i, "done", results[i])
                requeue_collateral(list(never_started))

        for i in sorted(remaining):
            if batch_dl is not None and batch_dl.expired():
                self._counters["timeouts"] += 1
                results[i] = self._timeout_result(
                    jobs[i], keys[i], None, max(attempts[i], 1),
                    reason="batch deadline expired",
                )
                emit(i, "done", results[i])
                continue
            self._counters["crash_failures"] += 1
            if service_closed:
                message = "service was closed while the batch was running"
            else:
                message = last_error.get(
                    i, f"worker process crashed ({attempts[i]} attempts)"
                )
            results[i] = JobResult(
                job_id=jobs[i].job_id,
                key=keys[i],
                status="crashed",
                error=message,
                attempts=attempts[i],
                metadata=jobs[i].metadata,
            )
            emit(i, "done", results[i])

    def _build_chunk(
        self,
        queue: deque,
        n_workers: int,
        jobs: Sequence[CompileJob],
        attempts: dict[int, int],
        blamed: dict[int, int],
        chains: dict[int, tuple[str, ...]],
        job_deadline: float | None,
        batch_dl: Deadline | None,
        plan: FaultPlan | None,
        token_job: dict[str, int],
        token_dispatch: dict[str, float],
    ) -> list[tuple[str, dict, float]]:
        """Pop the next dispatch chunk off ``queue`` and build payloads.

        Chunk size adapts to the backlog — roughly a quarter of a fair
        per-worker share, capped at ``_MAX_CHUNK`` — so IPC round-trips
        are amortized early in a large batch while the tail still load
        balances one job at a time.
        """
        share = -(-len(queue) // max(1, n_workers * 4))
        size = max(1, min(_MAX_CHUNK, share, len(queue)))
        chunk: list[tuple[str, dict, float]] = []
        for _ in range(size):
            i = queue.popleft()
            attempts[i] += 1
            chain = chains[i]
            # Walk the fallback chain one step per *attributed*
            # failure; un-blamed retries keep the requested router.
            router = chain[min(blamed[i], len(chain) - 1)]
            override = router if router != chain[0] else None
            if override is not None:
                self._counters["fallback_retries"] += 1
            token = f"{i}:{attempts[i]}"
            token_job[token] = i
            dispatch_mono = time.monotonic()
            token_dispatch[token] = dispatch_mono
            payload = self._augment(
                jobs[i].payload(),
                deadline=self._effective_deadline(jobs[i], job_deadline),
                batch_deadline=batch_dl, plan=plan,
                router_override=override,
            )
            chunk.append((token, payload, dispatch_mono))
        return chunk

    @staticmethod
    def _artifact_problem(outcome: dict) -> str | None:
        if outcome.get("status") not in ("ok", "degraded"):
            return None
        return validate_artifact(outcome.get("artifact"))

    def _augment(
        self,
        payload: dict,
        *,
        deadline: float | None,
        batch_deadline: Deadline | None,
        plan: FaultPlan | None,
        router_override: str | None = None,
    ) -> dict:
        """Attach the resilience and stage-cache keys to a worker payload.

        With no plan, no deadline and no override the payload is
        returned untouched apart from ``stage_cache_dir`` (a pure cache
        hint that never influences artefact bytes) — the clean-path
        artefacts stay stable.
        """
        if plan is not None:
            payload["faults"] = plan.to_dict()
        elif (
            self.stage_cache
            and self.cache is not None
            and self.cache.directory is not None
        ):
            payload["stage_cache_dir"] = str(self.cache.directory)
        if deadline is not None:
            payload["deadline_s"] = deadline
        if batch_deadline is not None:
            payload["batch_deadline"] = batch_deadline.to_dict()
        if router_override is not None:
            payload["router_override"] = router_override
        return payload

    def _job_timeout(
        self, job: CompileJob, batch_timeout: float | None
    ) -> float | None:
        if job.timeout is not None:
            return job.timeout
        if batch_timeout is not None:
            return batch_timeout
        return self.default_timeout

    @staticmethod
    def _effective_deadline(
        job: CompileJob, batch_deadline: float | None
    ) -> float | None:
        """A job's own cooperative deadline beats the batch-wide one
        (the gateway threads per-job SLO remainders through here)."""
        return job.deadline if job.deadline is not None else batch_deadline

    def _timeout_result(
        self,
        job: CompileJob,
        key: str,
        job_timeout: float | None,
        attempts: int,
        *,
        reason: str | None = None,
    ) -> JobResult:
        message = reason or (
            f"exceeded the {job_timeout}s compute budget"
        )
        return JobResult(
            job_id=job.job_id,
            key=key,
            status="timeout",
            error=message,
            attempts=attempts,
            metadata=job.metadata,
        )

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _try_cache(self, job: CompileJob, key: str) -> JobResult | None:
        if self.cache is None:
            return None
        t0 = time.perf_counter()
        with trace_span("cache.lookup", pass_="cache", job_id=job.job_id) as sp:
            artifact, tier = self.cache.lookup(key)
            if sp.enabled:
                sp.set(tier=tier or "miss")
        if artifact is None:
            return None
        self._counters["cache_hits"] += 1
        metrics = {
            "queue_wait_s": 0.0,
            "compile_s": 0.0,
            "total_s": round(time.perf_counter() - t0, 6),
        }
        metrics.update(artifact_metrics(artifact))
        return JobResult(
            job_id=job.job_id,
            key=key,
            status="ok",
            cache_hit=tier,
            artifact=artifact,
            metrics=metrics,
            metadata=job.metadata,
            gates=self.cache.held_gates(key) if tier == "memory" else None,
        )

    def _finish(
        self,
        job: CompileJob,
        key: str,
        outcome: dict,
        dispatch_mono: float,
        attempts: int,
    ) -> JobResult:
        # Both readings come from the system-wide monotonic clock (the
        # dispatch one crossed the process boundary as a shared epoch),
        # so the difference is non-negative by construction — no clamp,
        # which would silently turn a clock bug into a zero wait.
        queue_wait = outcome.get("started_mono", dispatch_mono) - dispatch_mono
        compile_s = outcome.get("compile_seconds", 0.0)
        stage_counters = outcome.get("stage_counters")
        if stage_counters and self.cache is not None:
            self.cache.merge_stage_counters(stage_counters)
        spans = outcome.get("spans")
        if spans:
            tracer = current_tracer()
            tracer.absorb(spans)
            for name, value in outcome.get("trace_counters", {}).items():
                tracer.counter(name, value)
        status = outcome["status"]
        if status not in ("ok", "degraded"):
            if status == "timeout":
                self._counters["timeouts"] += 1
            else:
                self._counters["errors"] += 1
            return JobResult(
                job_id=job.job_id,
                key=key,
                status=status,
                error=outcome.get("error", "unknown failure"),
                attempts=attempts,
                metrics={
                    "queue_wait_s": round(queue_wait, 6),
                    "compile_s": round(compile_s, 6),
                },
                metadata=job.metadata,
            )
        artifact = outcome["artifact"]
        problem = validate_artifact(artifact)
        if problem is not None:
            # In-process path (the pool path screens before _finish):
            # a corrupt artefact must never reach the cache or caller.
            self._counters["corrupt_artifacts"] += 1
            self._counters["errors"] += 1
            return JobResult(
                job_id=job.job_id,
                key=key,
                status="crashed",
                error=f"corrupt artifact: {problem}",
                attempts=attempts,
                metrics={
                    "queue_wait_s": round(queue_wait, 6),
                    "compile_s": round(compile_s, 6),
                },
                metadata=job.metadata,
            )
        gates = outcome.get("gates")
        if status == "ok":
            if self.cache is not None:
                self.cache.put(key, artifact, gates)
        else:
            # Degraded artefacts answer under a *different* configuration
            # than the key commits to — caching one would serve fallback
            # output to every future clean request.
            self._counters["degraded"] += 1
        self._counters["fresh_compiles"] += 1
        self._compile_seconds += compile_s
        self._queue_wait_seconds += queue_wait
        metrics = {
            "queue_wait_s": round(queue_wait, 6),
            "compile_s": round(compile_s, 6),
            "total_s": round(queue_wait + compile_s, 6),
        }
        metrics.update(artifact_metrics(artifact))
        return JobResult(
            job_id=job.job_id,
            key=key,
            status=status,
            artifact=artifact,
            attempts=attempts,
            metrics=metrics,
            metadata=job.metadata,
            gates=gates,
        )

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot: service, cache tier, and warm-pool counters."""
        service = {
            key: self._counters[key]
            for key in (
                "jobs_submitted", "batches", "cache_hits",
                "batch_dedup_hits", "fresh_compiles", "errors",
                "timeouts", "crash_retries", "crash_failures",
                "degraded", "corrupt_artifacts", "fallback_retries",
                "pools_created", "pool_reuse_batches",
            )
        }
        service["compile_seconds"] = round(self._compile_seconds, 6)
        service["queue_wait_seconds"] = round(self._queue_wait_seconds, 6)
        lookups = service["cache_hits"] + service["fresh_compiles"]
        service["hit_rate"] = (
            round(service["cache_hits"] / lookups, 4) if lookups else 0.0
        )
        pool_stats = self._pool.stats() if self._pool is not None else None
        # The headline warm-pool numbers ride on the service dict too,
        # so reports that only keep the service section still show them.
        service["worker_spawns"] = (
            pool_stats["worker_spawns"] if pool_stats else 0
        )
        service["pool_reuse_hits"] = (
            pool_stats["pool_reuse_hits"] if pool_stats else 0
        )
        cache_stats = self.cache.stats() if self.cache is not None else None
        # Headline stage-cache numbers ride on the service dict too, so
        # reports that only keep the service section still show them.
        for name in ("stage_hits", "stage_misses", "stage_hit_rate"):
            service[name] = cache_stats[name] if cache_stats else 0
        # In-process native-kernel activity (worker processes report
        # their own counters through the pool section).
        from ..mapping.routing._astar_native import kernel_stats

        return {
            "service": service,
            "cache": cache_stats,
            "pool": pool_stats,
            "kernel": kernel_stats(),
        }

    def trace_report(self, tracer) -> dict:
        """Per-job span trees plus service/cache/pool counters.

        Args:
            tracer: The :class:`~repro.obs.Tracer` that was current
                while jobs ran (worker spans were absorbed into it).

        Returns:
            A JSON-able report: one entry per ``job`` root span with its
            total seconds and per-pass time breakdown (children matched
            by pid/tid and time containment), the tracer's counter
            totals, and :meth:`stats`.
        """
        events = tracer.finished()
        roots = [
            e for e in events if e["name"] == "job" and e.get("depth", 0) == 0
        ]
        job_rows = []
        for root in roots:
            t0, t1 = root["ts"], root["ts"] + root["dur"]
            passes: dict[str, float] = {}
            for e in events:
                if e is root or e["pid"] != root["pid"] \
                        or e["tid"] != root["tid"]:
                    continue
                key = e.get("pass") or e["name"]
                # Leaf passes only: "pipeline"/"service" wrappers would
                # double-count the stages nested inside them.
                if key in ("pipeline", "service"):
                    continue
                if t0 <= e["ts"] and e["ts"] + e["dur"] <= t1 + 1e-9:
                    passes[key] = round(passes.get(key, 0.0) + e["dur"], 6)
            job_rows.append(
                {
                    "job_id": root["args"].get("job_id", ""),
                    "total_s": round(root["dur"], 6),
                    "passes": passes,
                }
            )
        return {
            "schema": 1,
            "jobs": job_rows,
            "counters": tracer.counters(),
            "stats": self.stats(),
        }
