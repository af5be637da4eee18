"""Experiment sec7-q3 — compilation quality vs compilation time.

One of the paper's closing open questions: "what is the good balance
between the obtained solution and the time required to compile the
circuit?  It is necessary to analyze the trade-off between mapping
optimizations and runtime."  The benchmark charts that Pareto front:
each router's aggregate SWAP count against its aggregate compile time
on a fixed instance set where the exact mapper is still feasible.
"""

import time

import pytest

from repro.devices import linear_device
from repro.mapping.routing import route
from repro.workloads import random_circuit

ROUTERS = ["naive", "sabre", "astar", "exact"]


def _instances():
    return [
        random_circuit(5, 10, seed=s, two_qubit_fraction=0.8) for s in range(6)
    ]


def test_quality_runtime_report(record_report):
    device = linear_device(5)
    rows = {}
    for router in ROUTERS:
        swaps = 0
        start = time.perf_counter()
        for circuit in _instances():
            swaps += route(circuit, device, router).added_swaps
        elapsed = time.perf_counter() - start
        rows[router] = (swaps, elapsed)

    # The Pareto shape the paper discusses: exact is the best solution
    # and the slowest; naive is fast but worst; heuristics sit between.
    assert rows["exact"][0] <= min(r[0] for r in rows.values())
    assert rows["exact"][1] >= rows["sabre"][1]
    assert rows["naive"][0] >= max(
        rows["sabre"][0], rows["astar"][0], rows["exact"][0]
    )

    # The report keeps the SWAP counts, which are the same on every host;
    # the compile times and their ratio go to stdout only.
    lines = [
        "quality vs compile-time trade-off (Sec. VII open question 3):",
        "6 random 5-qubit circuits on a 5-qubit line",
        "",
        f"{'router':<8} {'total swaps':>12}",
    ]
    for router in ROUTERS:
        swaps, elapsed = rows[router]
        lines.append(f"{router:<8} {swaps:>12}")
        print(f"{router:<8} compile time {elapsed:.3f}s")
    ratio = rows["exact"][1] / max(rows["sabre"][1], 1e-9)
    print(f"the exact mapper pays ~{ratio:.0f}x the heuristic's runtime")
    lines += [
        "",
        f"the exact mapper finds {rows['sabre'][0] - rows['exact'][0]} fewer "
        "SWAPs than sabre on this set; its runtime is printed, not recorded",
    ]
    record_report("quality_runtime", "\n".join(lines))


@pytest.mark.parametrize("router", ROUTERS)
def test_single_instance_speed(benchmark, router):
    device = linear_device(5)
    circuit = random_circuit(5, 10, seed=0, two_qubit_fraction=0.8)
    result = benchmark(lambda: route(circuit, device, router))
    assert result.added_swaps >= 0
