"""Persistent warm worker pool for the compile service.

The batch engine used to build a fresh ``ProcessPoolExecutor`` (plus a
``multiprocessing.Manager`` server process for start reports) for every
batch, every retry round, and every isolation round — which made cold
parallel throughput *slower* than serial (0.91x on the 40-case corpus).
:class:`WarmPool` replaces all of that with workers that live as long as
the :class:`~repro.service.engine.CompileService` that owns them:

* **Spawn once, reuse forever.**  Workers are forked on first use and
  survive across batches and retry rounds.  Each runs an initializer
  that imports the device library and resolves (compiles or dlopens)
  the native A* kernel exactly once — jobs never pay preload cost.
* **Chunked dispatch.**  The engine hands each idle worker a chunk of
  jobs in one IPC message; the worker streams back one ``start`` and
  one ``done`` event per job, so per-job budgets stay measured from
  worker start while task-queue round-trips are amortized.
* **Lightweight event channel.**  Every worker owns a
  ``multiprocessing.SimpleQueue`` back to the parent — synchronous pipe
  writes with no feeder thread, so a worker that ``os._exit``\\ s right
  after an event can never lose it (the Manager dict this replaces was
  a whole extra server process per batch).
* **Recycle only the broken worker.**  A crash or an abandoned hang
  kills exactly one worker; survivors keep their preloaded state.  The
  pool reports which job the dead worker was running (``current``) and
  which chunk-mates never started, so the engine's blame-based retry
  taxonomy is preserved without isolation rounds.

Counters (surfaced through ``CompileService.stats()`` and the service
benchmark summary): ``worker_spawns``, ``worker_recycles``,
``worker_crashes``, ``pool_reuse_hits`` (jobs dispatched to an
already-used warm worker), ``jobs_dispatched``, ``chunks_dispatched``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from collections import Counter, deque
from multiprocessing.connection import wait as _connection_wait

__all__ = ["WarmPool"]

#: Task sentinels on a worker's task queue.
_TASK_CHUNK = "chunk"
_TASK_STATS = "stats"
_TASK_STOP = "stop"


def _pool_context():
    """Prefer fork: cheap spawn, and preloaded state is inherited."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_main(worker_id: int, task_queue, out_queue):
    """Worker loop: preload once, then compile chunks until told to stop.

    The ``ready`` event carries the preload report; each job produces a
    ``start`` event (posted *before* the compile, over a feederless
    SimpleQueue, so it survives a crash inside the compile) and a
    ``done`` event with the :func:`~repro.service.engine.run_payload`
    outcome.
    """
    from ..mapping.routing import _astar_native

    builds_before = _astar_native.kernel_stats()["build_calls"]
    t0 = time.perf_counter()
    native_preloaded = _astar_native.warm_kernel()
    # Pull the heavy imports (device library, pipeline, parser) into
    # this process now, not on the first job's critical path.
    from ..devices import device as _device  # noqa: F401
    from .engine import run_payload

    stats = _astar_native.kernel_stats()
    jobs_run = 0

    def _report():
        return {
            "worker_id": worker_id,
            "pid": os.getpid(),
            "native_preloaded": native_preloaded,
            "native_available": stats["available"],
            "kernel_builds": stats["build_calls"] - builds_before,
            "native_layers": stats["native_layers"],
            "python_layers": stats["python_layers"],
            "batch_calls": stats["batch_calls"],
            "family_native_calls": stats["family_native_calls"],
            "family_python_calls": stats["family_python_calls"],
            "placement_native_calls": stats["placement_native_calls"],
            "placement_python_calls": stats["placement_python_calls"],
            "preload_s": round(time.perf_counter() - t0, 6),
            "jobs_run": jobs_run,
        }

    out_queue.put(("ready", worker_id, _report()))
    while True:
        task = task_queue.get()
        kind = task[0]
        if kind == _TASK_STOP:
            break
        if kind == _TASK_STATS:
            stats = _astar_native.kernel_stats()
            out_queue.put(("stats", worker_id, _report()))
            continue
        # ("chunk", [(token, payload, dispatch_mono), ...], trace)
        _, items, trace = task
        for token, payload, dispatch_mono in items:
            out_queue.put(("start", worker_id, token, time.monotonic()))
            outcome = run_payload(
                payload, dispatch_mono=dispatch_mono, trace=trace
            )
            # Only the artefact crosses the process boundary: the parent
            # decodes pool results from it.
            outcome.pop("gates", None)
            jobs_run += 1
            out_queue.put(("done", worker_id, token, outcome))


class _Worker:
    """Parent-side handle of one pool worker."""

    __slots__ = (
        "wid", "proc", "tasks", "events", "outstanding", "current",
        "jobs_done", "chunks", "ready_info", "stats_info",
    )

    def __init__(self, wid, proc, tasks, events):
        self.wid = wid
        self.proc = proc
        self.tasks = tasks
        self.events = events
        #: Tokens dispatched but not yet ``done``, in execution order.
        self.outstanding: deque = deque()
        #: The token that reported ``start`` but not yet ``done``.
        self.current: str | None = None
        self.jobs_done = 0
        self.chunks = 0
        self.ready_info: dict | None = None
        self.stats_info: dict | None = None

    @property
    def idle(self) -> bool:
        return not self.outstanding and self.proc.is_alive()

    def close_channels(self) -> None:
        for q in (self.tasks, self.events):
            try:
                q.close()
            except (OSError, AttributeError):  # pragma: no cover
                pass


def _terminate_workers(workers: dict) -> None:
    """Finalizer target: best-effort teardown of every live worker."""
    for worker in list(workers.values()):
        try:
            if worker.proc.is_alive():
                if worker.idle:
                    worker.tasks.put((_TASK_STOP,))
                else:
                    worker.proc.terminate()
        except (OSError, ValueError):  # pragma: no cover
            pass
    deadline = time.monotonic() + 2.0
    for worker in list(workers.values()):
        try:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(0.5)
            worker.close_channels()
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass
    workers.clear()


class WarmPool:
    """Long-lived compile workers shared across batches.

    Each worker resolves the native A* kernel in its initializer
    (a no-op under ``REPRO_NO_NATIVE``).

    Args:
        context: A ``multiprocessing`` context override (tests); default
            fork where available, else spawn.

    The pool has no hard size cap of its own — :meth:`ensure` grows it
    to whatever parallelism the current batch asks for, and idle warm
    workers stick around for the next batch.
    """

    def __init__(self, *, context=None) -> None:
        self._ctx = context or _pool_context()
        self._workers: dict[int, _Worker] = {}
        self._next_id = 0
        self.counters: Counter = Counter()
        self._closed = False
        # Finalizer (not __del__): tears the workers down when the pool
        # is garbage collected or the interpreter exits, so unclosed
        # services never leak processes.
        self._finalizer = weakref.finalize(
            self, _terminate_workers, self._workers
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def ensure(self, n: int) -> int:
        """Grow the pool to ``n`` live workers; returns how many spawned."""
        if self._closed:
            raise RuntimeError("pool is closed")
        spawned = 0
        while len(self.alive_workers()) < n:
            wid = self._next_id
            self._next_id += 1
            tasks = self._ctx.Queue()
            events = self._ctx.SimpleQueue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(wid, tasks, events),
                name=f"repro-pool-{wid}",
                daemon=True,
            )
            proc.start()
            self._workers[wid] = _Worker(wid, proc, tasks, events)
            self.counters["worker_spawns"] += 1
            spawned += 1
        return spawned

    def shutdown(self) -> None:
        """Stop every worker and close the channels.  Idempotent."""
        self._closed = True
        self._finalizer()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def alive_workers(self) -> list[int]:
        return [
            w.wid for w in self._workers.values() if w.proc.is_alive()
        ]

    def idle_workers(self) -> list[int]:
        """Live workers with nothing outstanding, oldest first."""
        return [w.wid for w in self._workers.values() if w.idle]

    def size(self) -> int:
        return len(self.alive_workers())

    def stats(self) -> dict:
        data = dict(self.counters)
        for key in (
            "worker_spawns", "worker_recycles", "worker_crashes",
            "pool_reuse_hits", "jobs_dispatched", "chunks_dispatched",
        ):
            data.setdefault(key, 0)
        data["workers_alive"] = len(self.alive_workers())
        return data

    # ------------------------------------------------------------------
    # Dispatch and events
    # ------------------------------------------------------------------

    def submit_chunk(self, wid: int, items, trace: bool) -> None:
        """Send ``[(token, payload, dispatch_mono), ...]`` to worker ``wid``.

        The task queue has a parent-side feeder thread, so this never
        blocks even for chunks larger than the pipe buffer.
        """
        worker = self._workers[wid]
        if worker.jobs_done or worker.chunks:
            self.counters["pool_reuse_hits"] += len(items)
        worker.chunks += 1
        self.counters["chunks_dispatched"] += 1
        self.counters["jobs_dispatched"] += len(items)
        worker.outstanding.extend(token for token, _, _ in items)
        worker.tasks.put((_TASK_CHUNK, list(items), trace))

    def poll(self, timeout: float) -> list[tuple]:
        """Wait up to ``timeout`` for events; return everything pending.

        Returns worker events (``ready`` / ``stats`` / ``start`` /
        ``done``) plus synthesized ``("exit", wid, exitcode, current,
        pending_tokens)`` events for workers found dead — emitted once,
        after their event channel is fully drained, so a ``done`` sent
        just before death is never misread as a crash.
        """
        waitables = []
        # Copy: shutdown() (possibly from another thread — the engine's
        # close() is documented concurrency-safe) clears the dict and
        # closes channels while we iterate.
        for worker in list(self._workers.values()):
            try:
                waitables.append(worker.events._reader)
                waitables.append(worker.proc.sentinel)
            except (OSError, ValueError):  # torn down under us
                continue
        if not waitables:
            time.sleep(min(timeout, 0.005))
            return []
        try:
            _connection_wait(waitables, timeout)
        except OSError:  # a channel died between listing and waiting
            pass
        events: list[tuple] = []
        for worker in list(self._workers.values()):
            events.extend(self._drain(worker))
            if not worker.proc.is_alive():
                events.extend(self._drain(worker))
                current = worker.current
                pending = [
                    t for t in worker.outstanding if t != current
                ]
                self.counters["worker_crashes"] += 1
                events.append(
                    ("exit", worker.wid, worker.proc.exitcode,
                     current, pending)
                )
                self._forget(worker)
        return events

    def _drain(self, worker: _Worker) -> list[tuple]:
        events = []
        try:
            while worker.events._reader.poll():
                evt = self._note(worker, worker.events.get())
                if evt is not None:
                    events.append(evt)
        except (OSError, EOFError):  # channel torn down under us
            pass
        return events

    def _note(self, worker: _Worker, evt: tuple) -> tuple | None:
        """Update worker bookkeeping for one event; None hides it."""
        kind = evt[0]
        if kind == "start":
            worker.current = evt[2]
        elif kind == "done":
            token = evt[2]
            if worker.current == token:
                worker.current = None
            try:
                worker.outstanding.remove(token)
            except ValueError:  # pragma: no cover — stale token
                pass
            worker.jobs_done += 1
        elif kind == "ready":
            worker.ready_info = evt[2]
        elif kind == "stats":
            worker.stats_info = evt[2]
        return evt

    # ------------------------------------------------------------------
    # Recycling
    # ------------------------------------------------------------------

    def discard_worker(self, wid: int) -> tuple[str | None, list[str]]:
        """Kill one worker (abandoned hang / timeout) and forget it.

        Returns ``(current, pending_tokens)``: the token the worker was
        running and the chunk-mates that never started — the engine
        re-queues the latter at no attempt cost.  Survivors are
        untouched; :meth:`ensure` replaces the lost capacity lazily.
        """
        worker = self._workers.get(wid)
        if worker is None:
            return None, []
        self._drain(worker)
        current = worker.current
        pending = [t for t in worker.outstanding if t != current]
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():  # pragma: no cover
                worker.proc.kill()
                worker.proc.join(0.5)
        self.counters["worker_recycles"] += 1
        self._forget(worker)
        return current, pending

    def _forget(self, worker: _Worker) -> None:
        worker.close_channels()
        self._workers.pop(worker.wid, None)

    # ------------------------------------------------------------------
    # Warm-up and worker stats
    # ------------------------------------------------------------------

    def wait_ready(self, timeout: float = 60.0) -> list[dict]:
        """Block until every live worker reported ``ready``; the reports.

        Used by ``CompileService.prewarm`` so benchmarks can separate
        one-time pool start-up from steady-state dispatch cost.
        """
        deadline = time.monotonic() + timeout
        while any(
            w.ready_info is None
            for w in self._workers.values()
            if w.proc.is_alive()
        ):
            if time.monotonic() > deadline:
                break
            self.poll(0.05)
        return [
            w.ready_info
            for w in self._workers.values()
            if w.ready_info is not None
        ]

    def worker_stats(self, timeout: float = 10.0) -> list[dict]:
        """Ask every idle worker for its stats report and collect them."""
        asked = []
        for wid in self.idle_workers():
            worker = self._workers[wid]
            worker.stats_info = None
            worker.tasks.put((_TASK_STATS,))
            asked.append(wid)
        deadline = time.monotonic() + timeout
        while any(
            self._workers[wid].stats_info is None
            for wid in asked
            if wid in self._workers
        ):
            if time.monotonic() > deadline:
                break
            self.poll(0.05)
        return [
            self._workers[wid].stats_info
            for wid in asked
            if wid in self._workers
            and self._workers[wid].stats_info is not None
        ]
