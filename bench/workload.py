"""Run one benchmark workload in this interpreter; print its result.

``run.py`` starts this script in a fresh interpreter per workload
(``setup_once.py`` times set-up on its own).  A run is:

1. set-up: import :mod:`repro`, build the devices, resolve the native
   kernel and, for ``gateway_stream``, start the warm pool;
2. untimed: the quality corpus (:func:`reference_quality`), compiled
   once, which also warms the library paths; then one service job per
   (router, schedule) for ``router_sweep``, or the gateway's hot set,
   which leaves it in the cache;
3. the timed pass with tracing off.  Closed-loop workloads run whole
   rounds over their distinct jobs with one client until the next round
   would overrun ``--seconds``; each call is rescaled by the host's
   speed when it ran (:class:`hostspeed.HostSpeed`), a job's time is
   its median over the rounds, and the percentiles are taken over the
   jobs of a round.  ``gateway_stream`` replays its open-loop schedule
   for ``--seconds``; each arrival is rescaled by the probes taken
   while the gateway was idle, and the percentiles are taken over every
   arrival;
4. with ``--trace 1``, the timed pass shrinks to two thirds of the time
   and a traced pass (:class:`layers.LayerTrace`) takes the last third;
5. the output checks of :mod:`check` over every distinct output.

Peak RSS is read before the checks, whose statevectors would dominate it.
The result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import repro.core.pipeline as pipeline
from repro.service import (
    AsyncCompileService,
    CompileCache,
    CompileJob,
    CompileService,
    Draining,
    Overloaded,
    artifact_to_result,
)
from repro.obs.export import write_chrome_trace

import check
import inputs
import layers
from hostspeed import HostSpeed


def p50_p90(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, interpolated between samples."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def warm_kernel() -> bool:
    """Resolve the native routing kernel now (False: unavailable)."""
    try:
        from repro.mapping.routing._astar_native import warm_kernel as warm
    except ImportError:
        return False
    return warm()


def kernel_counters() -> dict:
    """This process's native-kernel counters, via the service stats."""
    return CompileService(None).stats().get("kernel") or {}


#: CompileCache.stats() counters the cache metrics are built from.
_CACHE_KEYS = ("memory_hits", "disk_hits", "misses", "disk_errors",
               "stage_hits", "stage_misses")


class Outputs:
    """First output per distinct job, plus fingerprints across rounds."""

    def __init__(self) -> None:
        self.first: dict = {}
        self.fingerprints: dict[str, str] = {}
        self.occurrences: Counter = Counter()
        self.bad: dict[str, str] = {}
        self.fallbacks = 0

    def record(self, job_id: str, fp: str, result=None) -> None:
        self.occurrences[job_id] += 1
        known = self.fingerprints.setdefault(job_id, fp)
        if known != fp:
            self.bad.setdefault(job_id, "output differs from the first round")
        if result is not None and job_id not in self.first:
            self.first[job_id] = result

    def check(self, jobs: dict, seed: int) -> int:
        """Run the output checks; returns how many checks ran by simulation."""
        for job_id, result in self.first.items():
            problems = check.native_problems(result.native, jobs[job_id].device)
            if problems:
                self.bad.setdefault(job_id, "; ".join(problems[:3]))
        sample = check.equivalence_sample(self.first, seed)
        for job_id in sample:
            try:
                ok = check.equivalent(self.first[job_id])
            except ValueError as exc:
                ok, reason = False, str(exc)
            else:
                reason = "not equivalent to its input"
            if not ok:
                self.bad.setdefault(job_id, reason)
        return len(sample)

    def failed_occurrences(self) -> int:
        return sum(self.occurrences[job_id] for job_id in self.bad)


#: Seed of the fixed corpus the quality counts are summed over, and the
#: stretch of the gateway's schedule whose distinct jobs it takes.
QUALITY_SEED = 0
QUALITY_GATEWAY_S = 5.0


def reference_quality(workload: str, devices: dict):
    """Mapping quality of the workload's distinct jobs at :data:`QUALITY_SEED`.

    The corpus is compiled once, untimed, through the library entry
    point, and every output is checked for native legality.  It is the
    same for every ``--seed``, so a count moves only when the mapper's
    output does.  It runs before the timed pass and so also warms every
    (device, router) path the library workloads take.  Returns
    ``(quality, jobs compiled, failures)``.
    """
    if workload == "gateway_stream":
        jobs = inputs.gateway_stream(
            QUALITY_SEED, devices, QUALITY_GATEWAY_S
        )[0]
    else:
        jobs = inputs.jobs_for(workload, QUALITY_SEED, devices)
    totals, bad = Counter(), {}
    for job in jobs:
        try:
            result = pipeline.compile_with_config(
                job.circuit, job.device, job.config
            )
        except Exception as exc:  # noqa: BLE001 — a failed job is a data point
            bad[job.job_id] = repr(exc)
            continue
        problems = check.native_problems(result.native, job.device)
        if problems:
            bad[job.job_id] = "; ".join(problems[:3])
        totals.update({
            "added_swaps": result.added_swaps,
            "native_gates": result.native.size(),
            "native_depth": result.native.depth(),
            "latency_cycles": result.latency,
            "routed_gates": result.routed.circuit.size(),
        })
    routed = totals.pop("routed_gates", 0)
    quality = {key: totals[key] for key in
               ("added_swaps", "native_gates", "native_depth", "latency_cycles")}
    quality["gate_growth"] = quality["native_gates"] / routed if routed else 0.0
    return quality, len(jobs), bad


class ClosedLoop:
    """One client compiling the workload's distinct jobs round after round.

    Library workloads call :func:`repro.core.pipeline.compile_with_config`
    directly.  ``router_sweep`` submits each job to
    :meth:`CompileService.submit` on a fresh in-memory cache per round:
    one cold pass, which writes stage entries, then two full-hit passes;
    the client consumes each answer as a ``CompilationResult``.
    """

    def __init__(self, workload: str, seed: int, devices: dict) -> None:
        self.jobs = inputs.jobs_for(workload, seed, devices)
        self.by_id = {job.job_id: job for job in self.jobs}
        self.service_jobs = None
        self.service = None
        self.cache_totals: Counter = Counter()
        if workload == "router_sweep":
            self.service_jobs = {
                job.job_id: CompileJob.create(
                    job.circuit, job.device, job.config, job_id=job.job_id
                )
                for job in self.jobs
            }
        self.outputs = Outputs()

    def _round(self) -> list:
        if self.service_jobs is None:
            return self.jobs
        self._retire_service()
        self.service = CompileService(CompileCache(), max_workers=1)
        return self.jobs * 3

    def _retire_service(self) -> None:
        """Fold the round's cache counters into the pass totals and drop
        the cache, so memory does not grow with the number of rounds."""
        if self.service is not None:
            stats = self.service.cache.stats()
            self.cache_totals.update({k: stats[k] for k in _CACHE_KEYS})
            self.service = None

    def _execute(self, job):
        if self.service_jobs is None:
            return pipeline.compile_with_config(
                job.circuit, job.device, job.config
            )
        answer = self.service.submit(self.service_jobs[job.job_id])
        if answer.status != "ok":
            raise RuntimeError(f"status {answer.status}: {answer.error}")
        return answer.result()

    def warm_up(self) -> None:
        """One service job per (router, schedule).  The library paths
        were warmed by the quality corpus."""
        if self.service_jobs is None:
            return
        seen = set()
        for job in self._round():
            key = (job.device.name, job.config.router, job.config.schedule)
            if key not in seen:
                seen.add(key)
                self._execute(job)
        self._retire_service()

    def run(self, seconds: float, max_rounds=None) -> dict:
        """Whole rounds until the next would overrun ``seconds``."""
        calls: list[tuple[int, float, float]] = []
        attempted = errors = rounds = 0
        first_error = None
        self.cache_totals = Counter()
        speed = HostSpeed()
        speed.sample()
        t0 = time.monotonic()
        while True:
            for position, job in enumerate(self._round()):
                attempted += 1
                start = time.monotonic()
                begin = time.perf_counter()
                try:
                    result = self._execute(job)
                except Exception as exc:  # noqa: BLE001 — a failed job is a data point
                    errors += 1
                    first_error = first_error or f"{job.job_id}: {exc!r}"
                    continue
                calls.append((position, start, time.perf_counter() - begin))
                if result.metadata.get("resilience"):
                    self.outputs.fallbacks += 1
                self.outputs.record(job.job_id, check.fingerprint(result), result)
                speed.sample_if_due()
            rounds += 1
            elapsed = time.monotonic() - t0
            if max_rounds is not None and rounds >= max_rounds:
                break
            if elapsed + elapsed / rounds > seconds:
                break
        speed.sample()
        self._retire_service()
        by_position: dict[int, list[float]] = {}
        raw_by_position: dict[int, list[float]] = {}
        latencies = []
        for position, start, took in calls:
            latencies.append(took * speed.scale(start, start + took))
            by_position.setdefault(position, []).append(latencies[-1])
            raw_by_position.setdefault(position, []).append(took)
        job_times = [statistics.median(v) for v in by_position.values()]
        raw_times = [statistics.median(v) for v in raw_by_position.values()]
        return {
            "attempted": attempted,
            "errors": errors,
            "first_error": first_error,
            "latencies": latencies,
            "raw": [took for _, _, took in calls],
            "job_times": job_times,
            # One round at every job's median.
            "jobs_per_s": (
                len(job_times) / sum(job_times) if job_times else 0.0
            ),
            "raw_ms_p50_p90": [t * 1e3 for t in p50_p90(raw_times)],
            "host_speed": speed.speed(),
            "rounds": rounds,
            "elapsed_s": time.monotonic() - t0,
            "cache": self.cache_totals,
        }

    def finish(self, seed: int) -> int:
        return self.outputs.check(self.by_id, seed)


class Gateway:
    """Open-loop traffic into :class:`AsyncCompileService`.

    The gateway fronts a prewarmed ``CompileService`` with one worker per
    CPU and an on-disk cache in a temporary directory.  Latency counts
    from each job's due time, so generator stalls are charged to the
    jobs they delay.

    From the moment the pool's workers are forked until :meth:`close`,
    this thread keeps to one CPU, and so does the dispatcher thread the
    gateway starts on its first submission: the host-speed probes, taken
    in this thread, then run on the CPU where the gateway serves cache
    hits.  Unpinned, the rescaled median spread by 7% over eight seeds;
    pinned, by 2%.
    """

    def __init__(self, seed: int, devices: dict, work: Path) -> None:
        self.seed = seed
        self.devices = devices
        self.cache_dir = tempfile.mkdtemp(prefix="gateway-cache-", dir=work)
        self.service = CompileService(
            CompileCache(directory=self.cache_dir),
            max_workers=os.cpu_count() or 1,
        )
        self.service.prewarm()
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.gateway = AsyncCompileService(self.service)
        self.outputs = Outputs()
        self.by_id: dict = {}
        self.artifacts: dict = {}
        self.passes = 0

    def _stream(self, stream: int, seconds: float):
        jobs, arrivals = inputs.gateway_stream(
            self.seed, self.devices, seconds, stream
        )
        requests = {}
        for job in jobs:
            self.by_id[job.job_id] = job
            requests[job.job_id] = CompileJob.create(
                job.circuit, job.device, job.config, job_id=job.job_id
            )
        return jobs, arrivals, requests

    def warm_up(self) -> None:
        jobs, _, requests = self._stream(0, 0.0)
        for answer in self.service.submit_batch(
            [requests[job.job_id] for job in jobs]
        ):
            if answer.status != "ok":
                raise RuntimeError(f"warm-up job failed: {answer.error}")

    #: Host-speed probes run this long before a group falls due, and
    #: those within this window of an arrival rescale its latency.
    PROBE_LEAD_S = 0.03
    SPEED_WINDOW_S = 1.0

    def _probe_idle(self, speed: HostSpeed, due: float, handles: list) -> None:
        """Probe the host's speed just before a group falls due, unless
        an earlier job is still in flight: a probe that shares the
        interpreter with the dispatcher reads the GIL, not the host."""
        delay = due - self.PROBE_LEAD_S - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if all(handle.done() for _, handle in handles[-2 * inputs.GATEWAY_GROUP:]):
            speed.sample()

    def run(self, seconds: float, max_rounds=None) -> dict:
        """Replay the next arrival schedule: each pass (timed, then
        traced) gets its own stream of fresh jobs.  Each arrival's
        latency is rescaled by probes of the host's speed taken in this
        thread while the gateway was idle, before nearby groups."""
        stream = self.passes
        self.passes += 1
        jobs, arrivals, requests = self._stream(stream, seconds)
        if max_rounds is not None:
            arrivals = arrivals[:max(20, max_rounds * 20)]
        submissions = []
        for i, (_, index, _, _) in enumerate(arrivals):
            base = requests[jobs[index].job_id]
            submissions.append(CompileJob(
                qasm=base.qasm, device=base.device, config=base.config,
                job_id=f"{stream}/{i}", metadata={"job": jobs[index].job_id},
            ))
        before = self.gateway.stats()
        cache_before = self.service.cache.stats()
        handles, refused = [], 0
        speed = HostSpeed()
        speed.sample()
        t0 = time.monotonic() + 0.05
        group_due = None
        for (offset, index, priority, tenant), request in zip(arrivals, submissions):
            due = t0 + offset
            if due != group_due:
                group_due = due
                self._probe_idle(speed, due, handles)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                handles.append((due, self.gateway.submit(
                    request, priority=priority, tenant=tenant
                )))
            except (Overloaded, Draining):
                refused += 1
        latencies, raw, lags, waits, compile_s = [], [], [], [], 0.0
        errors, first_error, end = 0, None, t0
        for due, handle in handles:
            answer = handle.wait(timeout=120.0)
            terminal = handle.event_log()[-1]["t"]
            if answer.status != "ok":
                errors += 1
                first_error = first_error or (
                    f"{answer.job_id}: {answer.status}: {answer.error}"
                )
                continue
            job_id = answer.metadata["job"]
            raw.append(handle.submitted_mono - due + terminal)
            latencies.append(raw[-1] * speed.scale(
                due, due + raw[-1], window=self.SPEED_WINDOW_S
            ))
            lags.append(handle.submitted_mono - due)
            waits.append(handle.queue_wait_s or 0.0)
            compile_s += answer.metrics.get("compile_s", 0.0)
            end = max(end, handle.submitted_mono + terminal)
            digest = hashlib.sha256(
                json.dumps(answer.artifact, sort_keys=True).encode()
            ).hexdigest()[:16]
            self.outputs.record(job_id, digest)
            self.artifacts.setdefault(job_id, answer.artifact)
        after = self.gateway.stats()
        cache_after = self.service.cache.stats()
        return {
            "attempted": len(arrivals),
            "errors": errors + refused,
            "first_error": first_error or (
                f"{refused} submissions refused" if refused else None
            ),
            "latencies": latencies,
            "raw": raw,
            "job_times": latencies,
            "jobs_per_s": len(latencies) / (end - t0) if end > t0 else 0.0,
            "raw_ms_p50_p90": [t * 1e3 for t in p50_p90(raw)],
            "host_speed": speed.speed(),
            "rounds": 1,
            "elapsed_s": end - t0,
            "lag_ms_p90": p50_p90(lags)[1] * 1e3,
            "queue_wait_ms_p50": p50_p90(waits)[0] * 1e3,
            "queue_wait_ms_p90": p50_p90(waits)[1] * 1e3,
            # Compile time is wall time as measured, so the base is too.
            "compile_share": compile_s / sum(raw) if raw else 0.0,
            "rejected": after["gateway"]["rejected"]
            - before["gateway"]["rejected"],
            "micro_batches": after["service"]["batches"]
            - before["service"]["batches"],
            "cache": Counter({
                key: cache_after[key] - cache_before[key]
                for key in _CACHE_KEYS
            }),
            "pool": self.service.stats().get("pool") or {},
        }

    def close(self) -> None:
        self.gateway.close(drain=True)
        self.service.close()
        os.sched_setaffinity(0, self.cpus)
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def finish(self, seed: int) -> int:
        for job_id, art in self.artifacts.items():
            self.outputs.first[job_id] = artifact_to_result(art)
        return self.outputs.check(self.by_id, seed)


def setup(workload: str, seed: int, work: Path):
    """The timed set-up: devices, native kernel, gateway warm pool."""
    devices = inputs.build_devices(inputs.DEVICES[workload])
    native = warm_kernel()
    if workload == "gateway_stream":
        runner = Gateway(seed, devices, work)
    else:
        runner = None
    return devices, native, runner


_GATEWAY_ONLY = (
    "gateway.queue_wait_ms_p50", "gateway.queue_wait_ms_p90",
    "gateway.rejected", "gateway.micro_batches", "loadgen.lag_ms_p90",
    "pool.worker_spawns", "pool.reuse_hits", "pool.recycles",
)


def _rate(counters: Counter, hits: tuple, misses: str) -> float:
    hit = sum(counters[key] for key in hits)
    total = hit + counters[misses]
    return hit / total if total else 0.0


def _end_to_end(timed: dict, failed: int, attempted: int, rss_kb: int,
                quality: dict) -> dict:
    p50, p90 = p50_p90(timed["job_times"])
    return {
        "jobs_per_s": timed["jobs_per_s"],
        "job_ms_p50": p50 * 1e3,
        "job_ms_p90": p90 * 1e3,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "added_swaps": quality["added_swaps"],
        "native_gates": quality["native_gates"],
        "native_depth": quality["native_depth"],
        "latency_cycles": quality["latency_cycles"],
    }


def _per_layer(runner, timed: dict, traced: dict, events: list[dict],
               kernel: dict, quality: dict) -> dict:
    metrics = layers.layer_metrics(events, traced["raw"])
    # Layers a workload bypasses read zero.
    metrics.update(dict.fromkeys(_GATEWAY_ONLY, 0))
    if isinstance(runner, Gateway):
        pool = traced["pool"]
        metrics.update({
            "engine.compile_share": traced["compile_share"],
            "gateway.queue_wait_ms_p50": traced["queue_wait_ms_p50"],
            "gateway.queue_wait_ms_p90": traced["queue_wait_ms_p90"],
            "gateway.rejected": traced["rejected"],
            "gateway.micro_batches": traced["micro_batches"],
            "loadgen.lag_ms_p90": timed["lag_ms_p90"],
            "pool.worker_spawns": pool.get("worker_spawns", 0),
            "pool.reuse_hits": pool.get("pool_reuse_hits", 0),
            "pool.recycles": pool.get("worker_recycles", 0),
        })
    cache = traced["cache"]
    native, python = kernel.get("native_layers", 0), kernel.get("python_layers", 0)
    # Mean job time at reference speed, traced over untraced (for the
    # open loop it includes queueing).
    untraced = statistics.fmean(timed["latencies"] or [0.0])
    metrics.update({
        "cache.hit_rate": _rate(cache, ("memory_hits", "disk_hits"), "misses"),
        "cache.stage_hit_rate": _rate(cache, ("stage_hits",), "stage_misses"),
        "cache.disk_errors": cache["disk_errors"],
        "routing.native_layer_frac": (
            native / (native + python) if native + python else 0.0
        ),
        "routing.batch_calls": kernel.get("batch_calls", 0),
        "lower.gate_growth": quality["gate_growth"],
        "pipeline.fallbacks": runner.outputs.fallbacks,
        "trace.overhead_frac": (
            statistics.fmean(traced["latencies"] or [0.0]) / untraced - 1.0
            if untraced else 0.0
        ),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.DEVICES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="smoke runs: cap each pass at this many rounds "
             "(gateway_stream: 20 arrivals per round)",
    )
    parser.add_argument("--work", required=True,
                        help="directory for the gateway's on-disk cache")
    parser.add_argument("--trace-file", help="write the Chrome trace here")
    args = parser.parse_args(argv)

    devices, native, runner = setup(args.workload, args.seed, Path(args.work))
    if runner is None:
        runner = ClosedLoop(args.workload, args.seed, devices)

    phase_s = {}
    mark = time.monotonic()
    quality, reference_jobs, reference_bad = reference_quality(
        args.workload, devices
    )
    runner.warm_up()
    phase_s["quality_and_warm_up"] = time.monotonic() - mark
    mark = time.monotonic()
    timed_s = args.seconds * (2 / 3 if args.trace else 1)
    timed = runner.run(timed_s, max_rounds=args.rounds)
    traced = None
    if args.trace:
        before = kernel_counters()
        with layers.LayerTrace() as tracer:
            traced = runner.run(args.seconds - timed_s, max_rounds=args.rounds)
        after = kernel_counters()
        kernel = {k: after.get(k, 0) - before.get(k, 0)
                  for k in ("native_layers", "python_layers", "batch_calls")}
    if isinstance(runner, Gateway):
        runner.close()
    phase_s["passes"] = time.monotonic() - mark
    mark = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    simulated = runner.finish(args.seed)
    phase_s["checks"] = time.monotonic() - mark

    passes = [p for p in (timed, traced) if p is not None]
    attempted = sum(p["attempted"] for p in passes) + reference_jobs
    failed = sum(p["errors"] for p in passes)
    failed += runner.outputs.failed_occurrences() + len(reference_bad)
    errors = [p["first_error"] for p in passes if p["first_error"]]
    errors += [f"{k}: {v}" for k, v in list(runner.outputs.bad.items())[:5]]
    errors += [f"quality corpus {k}: {v}"
               for k, v in list(reference_bad.items())[:5]]
    if args.trace:
        events = tracer.tracer.finished()
        metrics = _per_layer(runner, timed, traced, events, kernel, quality)
        missing = tracer.missing(args.workload)
        if missing:
            errors.append(f"traced pass never reached: {', '.join(missing)}")
        if args.trace_file:
            write_chrome_trace(
                args.trace_file, events, counters=dict(tracer.calls),
                meta={"workload": args.workload, "seed": args.seed},
            )
    else:
        metrics = _end_to_end(timed, failed, attempted, rss_kb, quality)
        missing = []

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
        "info": {
            "timed_jobs": len(timed["latencies"]),
            "rounds": timed["rounds"],
            "timed_s": timed["elapsed_s"],
            "phase_s": phase_s,
            "host_speed": timed.get("host_speed"),
            "raw_job_ms_p50_p90": timed.get("raw_ms_p50_p90"),
            "distinct_jobs": len(runner.outputs.fingerprints),
            "equivalence_checked": simulated,
            "native_kernel": native,
            "traced_jobs": len(traced["latencies"]) if traced else 0,
            "gateway_rate": (
                inputs.GATEWAY_RATE if isinstance(runner, Gateway) else None
            ),
        },
    }, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
