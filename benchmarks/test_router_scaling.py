"""Experiment sec3-scaling — heuristics scale, exact approaches do not.

Section III-B / IV: "exact approaches are feasible when considering
relatively small number of qubits and gates ... However, they are not
scalable.  Approximate solutions using heuristics can be used for large
quantum circuits."  The benchmark sweeps circuit sizes on IBM QX5 and a
6x6 grid and times each router; the exact router is also shown refusing
beyond its guard.
"""

import time

import pytest

from repro.devices import grid_device, ibm_qx5, linear_device
from repro.mapping.routing import RoutingError, route, route_exact
from repro.workloads import random_circuit

SIZES = [10, 30, 60, 120]


def test_scaling_report(record_report):
    # The report keeps the SWAP counts, which are the same on every host;
    # the timings go to stdout only.
    lines = ["router scaling on ibm_qx5 (16 qubits), random circuits:", ""]
    lines.append(f"{'gates':>6} {'router':>8} {'swaps':>6}")
    device = ibm_qx5()
    timings = {}
    for size in SIZES:
        circuit = random_circuit(12, size, seed=size, two_qubit_fraction=0.6)
        for router in ("naive", "sabre", "astar", "latency"):
            start = time.perf_counter()
            result = route(circuit, device, router, None)
            elapsed = time.perf_counter() - start
            timings[(size, router)] = elapsed
            lines.append(f"{size:>6} {router:>8} {result.added_swaps:>6}")
            print(f"{size:>6} {router:>8} {elapsed:>9.4f}s")
    # Heuristics stay fast even on the largest instance.
    assert timings[(SIZES[-1], "sabre")] < 5.0

    # Exact: fine on 5 qubits / few gates, guarded beyond.
    small = random_circuit(5, 8, seed=1, two_qubit_fraction=0.8)
    start = time.perf_counter()
    exact_small = route_exact(small, linear_device(5))
    print(f"exact on linear5, 8 gates: {time.perf_counter() - start:.3f}s")
    lines += [
        "",
        f"exact on linear5, 8 gates: {exact_small.added_swaps} swaps",
    ]
    with pytest.raises(RoutingError):
        route_exact(random_circuit(12, 30, seed=2), device)
    lines.append("exact on ibm_qx5 (16 qubits): refused (state space 16!)")
    record_report("router_scaling", "\n".join(lines))


@pytest.mark.parametrize("router", ["naive", "sabre", "astar", "latency"])
def test_router_speed_on_large_circuit(benchmark, router):
    device = grid_device(4, 4)
    circuit = random_circuit(16, 100, seed=7, two_qubit_fraction=0.6)
    result = benchmark(lambda: route(circuit, device, router, None))
    assert result.added_swaps > 0


def test_exact_router_speed_small(benchmark):
    device = linear_device(5)
    circuit = random_circuit(5, 8, seed=1, two_qubit_fraction=0.8)
    result = benchmark(lambda: route_exact(circuit, device))
    assert result.metadata["cost"] == result.added_swaps * 3
