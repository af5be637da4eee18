"""Perf-regression smoke test — runs under tier-1 pytest.

Three guarantees on every test run:

1. **Equivalence**: the routers still produce byte-identical outputs
   (swap counts + circuit fingerprints) to the frozen seed outputs of
   ``tests/seed_baseline.py`` on all 46 cases: the 40 of
   :data:`repro.perf.CORPUS` and the six 80-119-qubit cases.
2. **Kernel path**: with the native kernels available, every A* layer
   of those 46 cases is solved natively, in batch calls, with no
   Python fallback layer, and every sabre, latency and reliability case
   runs in the family kernel; without them, all of it runs in Python.
3. **Budgets**: wall-clock stays within generous limits, so a future
   change that quietly re-introduces a full-rescore hot path fails CI
   instead of landing.  The headline case — A* on the 120-gate / 12
   program-qubit QX5 circuit — took 3.8–5.3 s in the seed; the budget
   here is far above the optimised time (~0.15 s with the native kernel)
   but far below the seed, keeping the 10x-plus win locked in.

The budgets are relaxed when the compiled A* kernel is unavailable (no C
compiler on the host): the pure-Python kernel is ~2.5 s on the headline
case, still ~2x the seed, and equivalence is enforced identically.
Timings meant for comparison across commits come from ``bench/``.
"""

import os
import sys
import time
from pathlib import Path

import pytest

from repro.devices import linear_device
from repro.mapping.routing import _astar_native, route, route_astar
from repro.perf import CORPUS, DEVICES, compare_serial, corpus_circuit
from repro.workloads import random_circuit

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tests.seed_baseline import (  # noqa: E402
    LARGE_CORPUS,
    LARGE_DEVICES,
    SEED_BASELINE,
    fingerprint,
)


def _native_kernel_available() -> bool:
    return _astar_native._get_lib() is not None


@pytest.fixture(scope="module")
def routed():
    """Route every seed case once through :func:`route`.

    Returns ``(cases, kernel)``: per case key, its ``(seconds, swaps,
    fingerprint)``, and the native-kernel counter deltas of the run.
    """
    # Trigger the one-time native-kernel compile outside the timed runs
    # (it is cached on disk, so this is usually instantaneous).
    route_astar(random_circuit(3, 4, seed=0), linear_device(3))
    factories = {**DEVICES, **LARGE_DEVICES}
    before = _astar_native.kernel_stats()
    cases = {}
    family = 0
    for key, dev, instance, router, options in CORPUS + LARGE_CORPUS:
        family += router in ("sabre", "latency", "reliability")
        circuit = corpus_circuit(*instance)
        device = factories[dev]()
        start = time.perf_counter()
        result = route(circuit, device, router, **options)
        seconds = time.perf_counter() - start
        cases[key] = (seconds, result.added_swaps, fingerprint(result.circuit))
    after = _astar_native.kernel_stats()
    kernel = {
        name: after[name] - before[name]
        for name in ("native_layers", "python_layers", "batch_calls",
                     "family_native_calls", "family_python_calls")
    }
    kernel["family_cases"] = family
    return cases, kernel


def test_outputs_byte_identical_to_seed(routed):
    cases, _ = routed
    assert set(cases) == set(SEED_BASELINE)
    diffs = [
        key
        for key, (_, swaps, fp) in cases.items()
        if (swaps, fp) != (
            SEED_BASELINE[key]["swaps"], SEED_BASELINE[key]["fingerprint"]
        )
    ]
    assert not diffs, f"router outputs drifted from the seed: {diffs}"


def test_kernel_path_matches_availability(routed):
    _, kernel = routed
    if os.environ.get("REPRO_NO_NATIVE"):
        assert not _native_kernel_available(), "native kernel not disabled"
    assert kernel["family_cases"] > 0, kernel
    if _native_kernel_available():
        assert kernel["python_layers"] == 0, (
            f"native kernel fell back to Python: {kernel}"
        )
        assert kernel["native_layers"] > 0, kernel
        assert kernel["batch_calls"] > 0, kernel
        # Every sabre, latency and reliability case runs in the kernel.
        assert kernel["family_native_calls"] == kernel["family_cases"], kernel
        assert kernel["family_python_calls"] == 0, kernel
    else:
        assert kernel["native_layers"] == 0, kernel
        assert kernel["python_layers"] > 0, kernel
        assert kernel["family_native_calls"] == 0, kernel
        assert kernel["family_python_calls"] == kernel["family_cases"], kernel


def test_hot_case_within_budget(routed):
    budget = 1.5 if _native_kernel_available() else 15.0
    seconds = routed[0]["ibm_qx5/12q120g_s120/astar"][0]
    assert seconds < budget, (
        f"A* hot case took {seconds:.2f}s (budget {budget}s); "
        "the seed needed 3.8-5.3s — a regression is creeping back in"
    )


def test_corpus_total_within_budget(routed):
    budget = 4.0 if _native_kernel_available() else 20.0
    total = sum(routed[0][key][0] for key, *_ in CORPUS)
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
    report = compare_serial(jobs=1, limit=6)
    summary = report["summary"]
    assert summary["cases"] == 6
    assert summary["warm_hit_rate"] == 1.0
    assert summary["artifacts_match_serial"] is True
    # Warm lookups must beat recompiling by a wide margin.
    assert summary["warm_seconds"] < summary["serial_seconds"]
