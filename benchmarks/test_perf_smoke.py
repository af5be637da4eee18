"""Perf-regression smoke test — runs under tier-1 pytest.

Two guarantees on every test run:

1. **Equivalence**: the optimised routers still produce byte-identical
   outputs (swap counts + circuit fingerprints) to the seed
   implementations on the whole fixed-seed corpus of
   :mod:`repro.perf.bench`.
2. **Budgets**: wall-clock stays within generous limits, so a future
   change that quietly re-introduces a full-rescore hot path fails CI
   instead of landing.  The headline case — A* on the 120-gate / 12
   program-qubit QX5 circuit — took 3.8–5.3 s in the seed; the budget
   here is far above the optimised time (~0.15 s with the native kernel)
   but far below the seed, keeping the 10x-plus win locked in.

The budgets are relaxed when the compiled A* kernel is unavailable (no C
compiler on the host): the pure-Python kernel is ~2.5 s on the headline
case, still ~2x the seed, and equivalence is enforced identically.

Full timing details are produced by ``python -m repro.cli bench --json
BENCH_routers.json``; this module reuses the same corpus and runner.
"""

import pytest

from repro.mapping.routing import _astar_native, route_astar
from repro.perf import run_bench
from repro.workloads import random_circuit
from repro.devices import linear_device


def _native_kernel_available() -> bool:
    return _astar_native._get_lib() is not None


@pytest.fixture(scope="module")
def bench_report():
    # Trigger the one-time native-kernel compile outside the timed runs
    # (it is cached on disk, so this is usually instantaneous).
    route_astar(random_circuit(3, 4, seed=0), linear_device(3))
    return run_bench()


def test_outputs_byte_identical_to_seed(bench_report):
    diffs = [
        case["case"]
        for case in bench_report["cases"]
        if not case["matches_seed"]
    ]
    assert not diffs, f"router outputs drifted from the seed: {diffs}"


def test_hot_case_within_budget(bench_report):
    budget = 1.5 if _native_kernel_available() else 15.0
    hot = next(
        case
        for case in bench_report["cases"]
        if case["case"] == "ibm_qx5/12q120g_s120/astar"
    )
    assert hot["seconds"] < budget, (
        f"A* hot case took {hot['seconds']:.2f}s (budget {budget}s); "
        "the seed needed 3.8-5.3s — a regression is creeping back in"
    )


def test_corpus_total_within_budget(bench_report):
    budget = 4.0 if _native_kernel_available() else 20.0
    total = bench_report["summary"]["total_seconds"]
    assert total < budget, (
        f"full corpus took {total:.2f}s (budget {budget}s, seed ~6.2s)"
    )


def test_sabre_scoring_is_incremental():
    """The SABRE and latency candidate loops must not rescore front+extended fully.

    Guards the design: the shared family loop builds one `_Terms` per
    decision, which holds the base sums, and the sabre and latency
    policies score each candidate from deltas over the pairs on the
    swapped qubits only.
    """
    import inspect

    from repro.mapping.routing import family, latency, sabre

    assert hasattr(family, "_Terms")
    assert "_Terms(" in inspect.getsource(family.route_family)
    # The full rescore helpers must not appear in the candidate loops.
    paths = [
        family.route_family,
        family._Terms.score,
        sabre._SabrePolicy.choose,
        latency._LatencyPolicy.choose,
    ]
    for fn in paths:
        source = inspect.getsource(fn)
        assert "_score(" not in source, fn.__qualname__
        assert "resum(" not in source, fn.__qualname__
    for policy in (sabre._SabrePolicy, latency._LatencyPolicy):
        assert "terms.score(" in inspect.getsource(policy.choose)


def test_service_batch_warm_cache():
    """The service layer serves the corpus warm at a 100% hit rate.

    A 6-job slice keeps this fast (<1s): serial baseline, cold batch,
    warm batch, byte-identity of cached artefacts vs serial — the same
    checks ``repro batch --corpus perf --compare-serial`` runs in full.
    """
    from repro.perf import run_service_bench

    report = run_service_bench(jobs=1, limit=6, oneshot_baseline=False)
    summary = report["summary"]
    assert summary["cases"] == 6
    assert summary["warm_hit_rate"] == 1.0
    assert summary["artifacts_match_serial"] is True
    # Warm lookups must beat recompiling by a wide margin.
    assert summary["warm_seconds"] < summary["serial_seconds"]
