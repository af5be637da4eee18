"""End-to-end compile benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 bench/run.py --workload small_devices --seed 0 --trace 0
    python3 bench/run.py                      # all five workloads

Each workload runs in its own fresh interpreter (``bench/workload.py``)
with ``src`` on its path; set-up time is the median of five more fresh
interpreters that stop once set-up is done (``bench/setup_once.py``),
two started before the workload and three after it, each rescaled by
the host-speed probes it runs itself.  The first run in a checkout
starts a throwaway one before them, which compiles the native kernel.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (and writes a Chrome trace next to the
result file).  Every metric is printed
by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The raw result,
with a provenance block describing the host, goes to ``--out``
(default ``bench/results/``).

Exit status: 0 when every output checked out, 1 on any failed job or
output check, 2 when the benchmark cannot run at all (no ``src/repro``
next to ``bench/``, a crashed or hung workload process).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

#: Wall-clock budget of one workload, set-up spawns included, seconds.
_BUDGET = 170

#: Set-up interpreters per untraced run; ``setup_s`` is their median.
_SETUP_SPAWNS = 5


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # The native kernel is compiled into TMPDIR; keep it in the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _kill(proc: subprocess.Popen) -> None:
    """Stop a child and everything it started, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _spawn(script: str, args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / script), *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def _left(deadline: float) -> float:
    return max(0.0, deadline - time.monotonic())


def _run_child(script: str, args: list[str], deadline: float) -> dict:
    """Run a bench script to completion; its last stdout line, parsed."""
    proc = _spawn(script, args)
    try:
        out, _ = proc.communicate(timeout=_left(deadline))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError(f"{script} exceeded the {_BUDGET} s budget") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def _setup_seconds(workload: str, deadline: float) -> float:
    """Set-up time of one fresh interpreter, from its start to the end of
    set-up, less its own probes, at the reference host speed."""
    start = time.monotonic()
    report = _run_child(
        "setup_once.py", ["--workload", workload, "--work", str(WORK)],
        deadline,
    )
    took = report["ready_at"] - start - report["probing_s"]
    return took * REFERENCE_S / report["probe_s"]


def _first_line(cmd: list[str]) -> str | None:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def provenance(args, info: dict) -> dict:
    """Host and run description stored with every raw result."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")), None,
            )
    except OSError:
        pass
    git_sha = git_dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git_sha = _first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True,
        )
        git_dirty = bool(status.stdout.strip()) if status.returncode == 0 \
            else None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cc": _first_line([os.environ.get("CC") or "cc", "--version"]),
        "native_kernel": info.get("native_kernel"),
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_s": info.get("timed_s"),
        "gateway_rate": info.get("gateway_rate"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(workload: str, args, spec: dict) -> dict:
    """One workload end to end; returns the raw result with provenance."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    child = ["--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(WORK)]
    if args.rounds is not None:
        child += ["--rounds", str(args.rounds)]
    if args.trace:
        child += ["--trace-file", str(out_dir / f"{stem}.trace.json")]
    started = time.monotonic()
    deadline = started + _BUDGET
    built = WORK / "built"
    if not built.exists():
        # Throwaway, once per checkout: builds the native kernel and
        # byte-compiles the sources.
        _setup_seconds(workload, deadline)
        built.touch()
    # Set-up samples straddle the workload: the host's slow spells last
    # seconds, so back-to-back samples tend to share one.
    spawns = 0 if args.trace else _SETUP_SPAWNS
    setups = [_setup_seconds(workload, deadline) for _ in range(spawns // 2)]
    spawned = time.monotonic()
    result = _run_child("workload.py", child, deadline)
    finished = time.monotonic()
    setups += [_setup_seconds(workload, deadline)
               for _ in range(spawns - len(setups))]
    result["info"]["wall_s"] = {
        "setup_spawns": spawned - started + time.monotonic() - finished,
        "workload": finished - spawned,
    }
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if setups:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples_s"] = setups
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {missing}")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    result["provenance"] = provenance(args, result["info"])
    (out_dir / f"{stem}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    return result


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    workloads = [w["name"] for w in spec.get("workloads", ())]
    parser.add_argument("--workload", choices=workloads,
                        help="run only this workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec.get("run_seconds", 15))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH / "results"),
                        help="directory for raw results and traces")
    parser.add_argument("--rounds", type=int, default=None,
                        help="cap each pass at this many rounds (smoke runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec:
        print(f"error: no src/repro or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)

    names = [args.workload] if args.workload else workloads
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<15} {metric:<28} {entry['value']:>14.6g} "
                  f"{entry['unit']}")
        for error in result["errors"]:
            print(f"{name:<15} FAILED {error}")
    correct = all(r["correct"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
