"""The fixed-seed perf corpus, and the serial-versus-pool comparison.

:data:`CORPUS` is one table: seven random circuits, each routed by
five routers (naive, sabre, astar, latency, reliability), plus five
router-option variants on one 12-qubit circuit, 40 cases in all.
:func:`corpus_jobs` turns it into full-pipeline compile jobs (``repro
batch --corpus perf``); the tier-1 tests route it case by case against
the frozen seed outputs.

:func:`compare_serial` (``repro batch --corpus perf --compare-serial``)
compiles the corpus three ways: serially in-process with no cache, as
one batch on a prewarmed pool with a cold cache, and again on the warm
cache.  It checks that every warm artefact equals its serial compile
byte for byte, and reports the pool's spawn and reuse counters.
Timings meant for comparison across commits come from ``bench/``.
"""

from __future__ import annotations

import time

from .core.circuit import Circuit
from .core.pipeline import PassConfig, compile_with_config
from .devices import grid_device, ibm_qx5, linear_device, surface17
from .devices.device import Device
from .qasm import parse_qasm, to_openqasm
from .service import CompileCache, CompileJob, CompileService
from .service.artifact import result_to_artifact
from .service.keys import canonical_json
from .workloads import random_circuit

__all__ = [
    "CORPUS",
    "DEVICES",
    "compare_serial",
    "corpus_circuit",
    "corpus_jobs",
]

#: Device factories, by the name the case keys carry.
DEVICES = {
    "ibm_qx5": ibm_qx5,
    "grid44": lambda: grid_device(4, 4),
    "linear9": lambda: linear_device(9),
    "surface17": surface17,
}

#: (device, qubits, gates, seed) of each routed random circuit.
_INSTANCES = (
    ("ibm_qx5", 12, 30, 11),
    ("ibm_qx5", 12, 120, 120),
    ("ibm_qx5", 16, 80, 5),
    ("grid44", 16, 100, 7),
    ("grid44", 10, 60, 3),
    ("linear9", 9, 50, 2),
    ("surface17", 12, 70, 13),
)
_ROUTERS = ("naive", "sabre", "astar", "latency", "reliability")

#: Router-option variants, all on the 12q60g seed-42 circuit on QX5.
_VARIANTS = {
    "sabre_commutation": ("sabre", {"commutation": True}),
    "sabre_lookahead0": ("sabre", {"lookahead": 0}),
    "sabre_nodecay": ("sabre", {"use_decay": False}),
    "astar_lookahead2": ("astar", {"lookahead_layers": 2}),
    "latency_commutation": ("latency", {"commutation": True}),
}

#: ``(key, device, (qubits, gates, seed), router, router options)`` per
#: case, in job order.
CORPUS: list[tuple[str, str, tuple[int, int, int], str, dict]] = [
    (f"{dev}/{nq}q{ng}g_s{seed}/{router}", dev, (nq, ng, seed), router, {})
    for dev, nq, ng, seed in _INSTANCES
    for router in _ROUTERS
] + [
    (f"variants/{name}", "ibm_qx5", (12, 60, 42), router, options)
    for name, (router, options) in _VARIANTS.items()
]


def corpus_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """The random circuit of one corpus instance."""
    return random_circuit(
        num_qubits, num_gates, seed=seed, two_qubit_fraction=0.6
    )


def corpus_jobs(limit: int | None = None) -> list[CompileJob]:
    """The first ``limit`` corpus cases (all 40 by default) as jobs."""
    devices: dict[str, Device] = {}
    texts: dict[tuple, str] = {}
    jobs = []
    for key, dev, instance, router, options in CORPUS[:limit]:
        if dev not in devices:
            devices[dev] = DEVICES[dev]()
        if instance not in texts:
            texts[instance] = to_openqasm(corpus_circuit(*instance))
        jobs.append(CompileJob.create(
            texts[instance],
            devices[dev],
            PassConfig(router=router, router_options=options),
            job_id=key,
        ))
    return jobs


def compare_serial(
    *,
    jobs: int = 4,
    cache_dir: str | None = None,
    limit: int | None = None,
    retries: int = 1,
    timeout: float | None = None,
) -> dict:
    """Time the corpus serially, on a cold pool and on a warm cache.

    The pool is spawned and preloaded before the cold clock starts: a
    service pays that once per lifetime, so it is reported on its own
    as ``pool_prewarm_seconds``.  Returns the JSON report.
    """
    workload = corpus_jobs(limit)
    n = len(workload)
    serial: dict[str, str] = {}
    t0 = time.perf_counter()
    for job in workload:
        result = compile_with_config(
            parse_qasm(job.qasm), Device.from_dict(job.device), job.config
        )
        serial[job.job_id] = canonical_json(
            result_to_artifact(result, config=job.config)
        )
    serial_s = time.perf_counter() - t0

    service = CompileService(
        CompileCache(directory=cache_dir),
        max_workers=jobs,
        retries=retries,
        default_timeout=timeout,
    )
    try:
        t0 = time.perf_counter()
        service.prewarm()
        prewarm_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        cold = service.submit_batch(workload)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = service.submit_batch(workload)
        warm_s = time.perf_counter() - t0
        stats = service.stats()
    finally:
        service.close()

    matches = [
        r.ok and canonical_json(r.artifact) == serial[r.job_id] for r in warm
    ]
    pool = stats["pool"] or {}
    summary = {
        "cases": n,
        "workers": jobs,
        "serial_seconds": round(serial_s, 4),
        "serial_throughput": round(n / serial_s, 2),
        "parallel_cold_seconds": round(cold_s, 4),
        "parallel_cold_throughput": round(n / cold_s, 2),
        "parallel_speedup": round(serial_s / cold_s, 2),
        "warm_seconds": round(warm_s, 4),
        "warm_throughput": round(n / warm_s, 2),
        "warm_hit_rate": round(sum(bool(r.cache_hit) for r in warm) / n, 4),
        "artifacts_match_serial": all(matches),
        "pool_prewarm_seconds": round(prewarm_s, 4),
        "worker_spawns": pool.get("worker_spawns", 0),
        "pool_reuse_hits": pool.get("pool_reuse_hits", 0),
        "worker_recycles": pool.get("worker_recycles", 0),
    }
    cases = [
        {"case": job.job_id, "cold_status": c.status,
         "warm_hit": w.cache_hit, "matches_serial": match}
        for job, c, w, match in zip(workload, cold, warm, matches)
    ]
    return {
        "schema": 1,
        "cases": cases,
        "summary": summary,
        "service_stats": stats,
    }
