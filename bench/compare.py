"""Compare two sets of benchmark runs: parent commit against a change.

Usage (from the repository root)::

    python3 bench/compare.py PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD]

Each directory holds raw ``--trace 0`` results written by ``run.py``
(``--out DIR``).  For every workload x end-to-end metric of
``BENCHMARK.json`` the table shows each side's median and quartiles and
a verdict:

* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound (a bound of 0, as on the quality counts and
  ``ok_frac``, makes any worsening a regression);
* ``unresolved`` — either side's spread (quartile distance over median)
  exceeds the bound, so "no change" cannot be told from noise, unless
  every change run reads better than every parent run;
* ``better`` / ``ok`` otherwise.

``--claim METRIC@WORKLOAD`` also tests a claimed gain: runs are paired
in order (sorted by seed, then start time, as alternating pairs come
out), the change must win at least nine tenths of the pairs (ties count
for neither side) over at least ten pairs, and the medians must differ
by more than the parent's own quartile distance.

Exit status 1 on any ``worse`` row or an unmet claim, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced results in ``directory``, grouped by workload, in run order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        result = json.loads(path.read_text())
        if result.get("provenance", {}).get("trace"):
            continue
        runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: (r["seed"], r["provenance"]["started"]))
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a > b if direction == "higher" else a < b


def verdict(parent: list[float], change: list[float], metric: dict) -> str:
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    direction = metric["better"]
    bound = metric["bound"] * abs(p_med)
    worse_by = (p_med - c_med) if direction == "higher" else (c_med - p_med)
    if worse_by > bound:
        return "worse"
    spread = max(
        (p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    if spread > metric["bound"]:
        if all(_better(c, p, direction) for c in change for p in parent):
            return "better"
        return "unresolved"
    if _better(c_med, p_med, direction) and -worse_by > bound:
        return "better"
    return "ok"


def check_claim(parent: list[float], change: list[float], metric: dict) -> str | None:
    """``None`` when the claimed gain holds, else why it does not."""
    pairs = list(zip(parent, change))
    if len(pairs) < 10:
        return f"only {len(pairs)} pairs; at least 10 are needed"
    wins = sum(_better(c, p, metric["better"]) for p, c in pairs)
    if wins < 0.9 * len(pairs):
        return f"change wins {wins} of {len(pairs)} pairs (< 9/10)"
    p_med, p_q1, p_q3 = summary(parent)
    c_med = summary(change)[0]
    if abs(c_med - p_med) <= p_q3 - p_q1:
        return "median gap is within the parent's quartile distance"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in parent_runs and w["name"] in change_runs]
    if not workloads:
        print("error: no workload has results on both sides", file=sys.stderr)
        return 2

    print(f"{'workload':<15} {'metric':<15} {'unit':<6} "
          f"{'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'delta':>8} {'bound':>6}  verdict")
    failed = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in parent_runs[workload]]
            change = [r["metrics"][name]["value"] for r in change_runs[workload]]
            status = verdict(parent, change, metric)
            failed |= status == "worse"
            p_med, p_q1, p_q3 = summary(parent)
            c_med, c_q1, c_q3 = summary(change)
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            print(f"{workload:<15} {name:<15} {metric['unit']:<6} "
                  f"{p_med:>12.4g} [{p_q1:>8.4g}, {p_q3:>8.4g}] "
                  f"{c_med:>12.4g} [{c_q1:>8.4g}, {c_q3:>8.4g}] "
                  f"{delta:>+8.1%} {metric['bound']:>6.2f}  {status}")

    if args.claim:
        name, _, workload = args.claim.partition("@")
        metric = next((m for m in spec["end_to_end"] if m["name"] == name), None)
        if metric is None or workload not in workloads:
            print(f"error: unknown claim {args.claim!r}", file=sys.stderr)
            return 2
        problem = check_claim(
            [r["metrics"][name]["value"] for r in parent_runs[workload]],
            [r["metrics"][name]["value"] for r in change_runs[workload]],
            metric,
        )
        print(f"claim {args.claim}: " + ("met" if problem is None
                                        else f"NOT met ({problem})"))
        failed |= problem is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
