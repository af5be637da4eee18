"""Command-line interface.

The compiler of the paper's Fig. 2 as a tool: QASM text plus a machine
description in, a mapped/scheduled program out.

Usage examples::

    python -m repro devices
    python -m repro info --device surface17
    python -m repro map circuit.qasm --device ibm_qx4 --router sabre \
        --optimize --verify -o mapped.qasm --report
    python -m repro map circuit.qasm --device-config mychip.json \
        --schedule constraints --cqasm mapped.cq
    python -m repro batch manifest.json --jobs 4 --cache-dir .repro-cache \
        --json report.json
    python -m repro batch --corpus perf --jobs 4 --compare-serial \
        --json compare.json
    python -m repro serve --port 8571 --jobs 4 --cache-dir .repro-cache
    python -m repro batch --corpus perf --trace trace.json
    python -m repro trace summarize trace.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core.circuit import Circuit
from .core.pipeline import compile_circuit
from .devices import Device, available_devices, get_device
from .mapping.placement import PLACERS
from .mapping.routing import ROUTERS
from .mapping.routing.base import RoutingError
from .qasm import QasmError, parse_qasm, schedule_to_cqasm, to_cqasm, to_openqasm
from .resilience.deadline import check_budget
from .verify import equivalent_mapped
from .viz import draw_circuit, draw_device, draw_schedule

__all__ = ["main", "build_parser", "CliError"]


class CliError(Exception):
    """A user-input problem reported as one clean line, no traceback."""


def _load_circuit(path_text: str) -> Circuit:
    """Read and parse an OpenQASM input ('-' for stdin).

    Raises:
        CliError: when the file is missing/unreadable or the QASM text
            does not parse.
    """
    if path_text == "-":
        source = sys.stdin.read()
        label = "<stdin>"
    else:
        try:
            source = Path(path_text).read_text()
        except OSError as exc:
            raise CliError(
                f"cannot read {path_text!r}: {exc.strerror or exc}"
            ) from exc
        label = path_text
    try:
        return parse_qasm(source)
    except QasmError as exc:
        raise CliError(f"invalid QASM in {label}: {exc}") from exc


def _seconds(text: str) -> float:
    """An argparse type: a finite number of seconds >= 0."""
    try:
        return check_budget(float(text), "seconds")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantum circuit mapper (DATE 2020 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list available device models")

    info = sub.add_parser("info", help="describe one device model")
    _add_device_args(info)

    map_cmd = sub.add_parser("map", help="compile an OpenQASM file for a device")
    map_cmd.add_argument("input", help="OpenQASM 2.0 input file ('-' for stdin)")
    _add_device_args(map_cmd)
    map_cmd.add_argument(
        "--placer", default="assignment", choices=sorted(PLACERS),
        help="initial placement strategy (default: assignment)",
    )
    map_cmd.add_argument(
        "--router", default="sabre", choices=sorted(ROUTERS),
        help="routing algorithm (default: sabre)",
    )
    map_cmd.add_argument(
        "--schedule", default="asap",
        choices=["asap", "alap", "constraints", "none"],
        help="scheduling mode (default: asap)",
    )
    map_cmd.add_argument(
        "--optimize", action="store_true",
        help="run peephole optimisation on the lowered circuit",
    )
    map_cmd.add_argument(
        "--no-decompose", action="store_true",
        help="stop after routing (keep SWAPs / non-native gates)",
    )
    map_cmd.add_argument(
        "--verify", action="store_true",
        help="check mapped-circuit equivalence before writing output",
    )
    map_cmd.add_argument(
        "-o", "--output", metavar="FILE",
        help="write the mapped circuit as OpenQASM",
    )
    map_cmd.add_argument(
        "--cqasm", metavar="FILE",
        help="write the result as cQASM (scheduled bundles when scheduled)",
    )
    map_cmd.add_argument(
        "--report", action="store_true",
        help="print the compilation summary and schedule table",
    )
    map_cmd.add_argument(
        "--draw", action="store_true",
        help="print ASCII diagrams of the input and mapped circuits",
    )
    map_cmd.add_argument(
        "--trace", metavar="FILE", dest="trace_path",
        help="record per-pass spans and write a Chrome-trace JSON file",
    )

    sim = sub.add_parser(
        "simulate", help="run an OpenQASM file on the statevector simulator"
    )
    sim.add_argument("input", help="OpenQASM 2.0 input file ('-' for stdin)")
    sim.add_argument(
        "--shots", type=int, default=1024, help="measurement shots (default 1024)"
    )
    sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    sim.add_argument(
        "--noise", action="store_true",
        help="sample under the default Pauli-error model instead of ideally",
    )
    sim.add_argument(
        "--error-2q", type=float, default=0.01,
        help="two-qubit error rate for --noise (default 0.01)",
    )

    batch = sub.add_parser(
        "batch",
        help="compile many circuit/device/config jobs through the "
        "caching service (manifest file or built-in corpus)",
    )
    batch.add_argument(
        "manifest", nargs="?", default=None,
        help="JSON manifest of jobs ('-' for stdin); "
        "omit when using --corpus",
    )
    batch.add_argument(
        "--corpus", choices=["perf"], default=None,
        help="use a built-in workload instead of a manifest "
        "(perf = the fixed-seed full-pipeline corpus)",
    )
    batch.add_argument(
        "--limit", type=_positive_int, default=None, metavar="N",
        help="only run the first N jobs of the workload",
    )
    batch.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the batch (default 1 = in-process)",
    )
    batch.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent on-disk artefact cache directory",
    )
    batch.add_argument(
        "--no-cache", action="store_true",
        help="compile every job fresh (still dedups within the batch)",
    )
    batch.add_argument(
        "--timeout", type=_seconds, default=None, metavar="SECONDS",
        help="per-job compute budget, measured from the moment a worker "
        "starts the job (queue wait is free); enforced from outside the "
        "worker, so it needs the pool path",
    )
    batch.add_argument(
        "--deadline", type=_seconds, default=None, metavar="SECONDS",
        help="cooperative per-job routing deadline: routers poll it and "
        "degrade through the fallback chain (astar -> sabre -> naive) "
        "instead of being killed",
    )
    batch.add_argument(
        "--batch-timeout", type=_seconds, default=None, metavar="SECONDS",
        help="overall wall-clock bound on the whole batch; unfinished "
        "jobs report status=timeout when it expires",
    )
    batch.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="fault-injection plan: a JSON file path or inline JSON "
        "(see docs/resilience.md); crash/hang faults run in pool "
        "workers, never in this process",
    )
    batch.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="retry budget per job after a worker crash (default 1); "
        "attributed crashes retry with the next fallback router",
    )
    batch.add_argument(
        "--json", metavar="FILE", dest="json_path",
        help="write the full batch report as JSON",
    )
    batch.add_argument(
        "--compare-serial", action="store_true",
        help="run the three-phase throughput benchmark "
        "(serial / parallel cold / warm cache) instead of a plain batch",
    )
    batch.add_argument(
        "--trace", metavar="FILE", dest="trace_path",
        help="record per-job pass spans (merged across workers) as a "
        "Chrome-trace JSON file",
    )

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON compile gateway (async job API, "
        "priority queues, admission control) over the warm pool",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8571,
        help="TCP port (default 8571; 0 picks an ephemeral port, "
        "printed on startup)",
    )
    serve.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="warm-pool workers (default: CPU count)",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent on-disk artefact cache directory",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="compile every job fresh",
    )
    serve.add_argument(
        "--timeout", type=_seconds, default=None, metavar="SECONDS",
        help="per-job hard compute budget (measured from worker start)",
    )
    serve.add_argument(
        "--deadline", type=_seconds, default=None, metavar="SECONDS",
        help="default cooperative routing deadline for jobs that do "
        "not carry their own SLO deadline",
    )
    serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="crash-retry budget per job (default 1)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=256, metavar="N",
        help="admission control: max queued jobs before submissions "
        "are rejected with 429 (default 256)",
    )
    serve.add_argument(
        "--tenant-burst", type=int, default=64, metavar="N",
        help="admission control: per-tenant token-bucket capacity "
        "(default 64)",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=32.0, metavar="N",
        help="admission control: per-tenant token refill rate per "
        "second (default 32)",
    )
    serve.add_argument(
        "--prewarm", action="store_true",
        help="spawn and preload the worker pool before accepting "
        "traffic",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr",
    )

    trace_cmd = sub.add_parser(
        "trace", help="inspect Chrome-trace files written with --trace"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_sum = trace_sub.add_parser(
        "summarize", help="print a per-pass time/gate table for a trace file"
    )
    trace_sum.add_argument("file", help="Chrome-trace JSON file")
    return parser


def _add_device_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--device", choices=available_devices(), help="registry device name"
    )
    group.add_argument(
        "--device-config", metavar="FILE",
        help="JSON machine-description file (Device.to_json format)",
    )
    parser.add_argument(
        "--qubits", type=int, default=None,
        help="qubit count for parametric devices (linear/ring/all_to_all)",
    )
    parser.add_argument("--rows", type=int, default=None, help="grid rows")
    parser.add_argument("--cols", type=int, default=None, help="grid cols")
    parser.add_argument(
        "--row-len", type=int, default=None,
        help="qubits per row for the heavy_hex device",
    )


def _resolve_device(args: argparse.Namespace) -> Device:
    if args.device_config:
        return Device.from_json(Path(args.device_config))
    params = {}
    if args.device in ("grid", "dots"):
        if args.rows is None or args.cols is None:
            raise SystemExit(f"{args.device} device needs --rows and --cols")
        params = {"rows": args.rows, "cols": args.cols}
    elif args.device in ("linear", "ring", "all_to_all"):
        if args.qubits is None:
            raise SystemExit(f"{args.device} device needs --qubits")
        params = {"num_qubits": args.qubits}
    elif args.device == "heavy_hex":
        if args.rows is None or args.row_len is None:
            raise SystemExit("heavy_hex device needs --rows and --row-len")
        params = {"rows": args.rows, "row_len": args.row_len}
    return get_device(args.device, **params)


def _make_tracer(args):
    """A (tracer, context) pair for ``--trace``; null when not requested."""
    from contextlib import nullcontext

    if not getattr(args, "trace_path", None):
        return None, nullcontext()
    from .obs import Tracer, use_tracer

    tracer = Tracer()
    return tracer, use_tracer(tracer)


def _write_trace(args, tracer, out, meta=None) -> None:
    """Write the tracer's spans as a Chrome-trace JSON file."""
    from .obs import write_chrome_trace

    write_chrome_trace(
        args.trace_path, tracer.finished(),
        counters=tracer.counters(), meta=meta,
    )
    print(f"wrote {args.trace_path}", file=out)


def _cmd_devices(out) -> int:
    for name in available_devices():
        print(name, file=out)
    return 0


def _cmd_info(args, out) -> int:
    device = _resolve_device(args)
    print(draw_device(device), file=out)
    return 0


def _cmd_map(args, out) -> int:
    circuit = _load_circuit(args.input)
    device = _resolve_device(args)

    tracer, trace_ctx = _make_tracer(args)
    with trace_ctx:
        try:
            result = compile_circuit(
                circuit,
                device,
                placer=args.placer,
                router=args.router,
                decompose=not args.no_decompose,
                optimize=args.optimize,
                schedule=None if args.schedule == "none" else args.schedule,
            )
        except RoutingError as exc:
            raise CliError(f"routing failed: {exc}") from exc
    if tracer is not None:
        _write_trace(args, tracer, out)

    if args.verify:
        from .verify import STATEVECTOR_LIMIT

        unitary_only = all(
            g.is_unitary or g.is_barrier for g in result.native.gates
        )
        if not unitary_only:
            print(
                "warning: circuit contains measurements; skipping the "
                "unitary equivalence check",
                file=sys.stderr,
            )
        elif result.native.num_qubits > STATEVECTOR_LIMIT:
            print(
                f"warning: {result.native.num_qubits}-qubit device exceeds "
                f"the {STATEVECTOR_LIMIT}-qubit statevector limit; skipping "
                "the equivalence check",
                file=sys.stderr,
            )
        elif not equivalent_mapped(
            circuit, result.native, result.routed.initial, result.routed.final
        ):
            print("ERROR: mapped circuit is NOT equivalent", file=sys.stderr)
            return 2
        else:
            print("verification: mapped circuit equivalent", file=out)

    if args.report or not (args.output or args.cqasm):
        print(result.summary(), file=out)
    if args.draw:
        print("\ninput circuit:", file=out)
        print(draw_circuit(circuit), file=out)
        print("\nmapped circuit:", file=out)
        print(draw_circuit(result.native, qubit_prefix="Q"), file=out)
    if args.report and result.schedule is not None:
        print("\nschedule:", file=out)
        print(draw_schedule(result.schedule), file=out)

    if args.output:
        Path(args.output).write_text(to_openqasm(result.native))
        print(f"wrote {args.output}", file=out)
    if args.cqasm:
        if result.schedule is not None:
            text = schedule_to_cqasm(result.schedule)
        else:
            text = to_cqasm(result.native)
        Path(args.cqasm).write_text(text)
        print(f"wrote {args.cqasm}", file=out)
    return 0


def _cmd_simulate(args, out) -> int:
    circuit = _load_circuit(args.input)

    measured = sorted({g.qubits[0] for g in circuit.gates if g.is_measurement})
    report_qubits = measured or list(range(circuit.num_qubits))

    if args.noise:
        from .sim.noise import NoiseModel
        from .sim.monte_carlo import sample_noisy_counts

        noise = NoiseModel(error_2q=args.error_2q)
        counts = sample_noisy_counts(
            circuit, noise, shots=args.shots, seed=args.seed,
            measure_qubits=report_qubits,
        )
        print(f"noisy sampling ({args.shots} shots, e2q={args.error_2q}):", file=out)
    else:
        import numpy as np

        from .sim import StateVector

        counts: dict[str, int] = {}
        for shot in range(args.shots):
            sv = StateVector(
                circuit.num_qubits,
                rng=np.random.default_rng((args.seed, shot)),
            )
            sv.run(circuit)
            bits = "".join(
                str(sv.results[q]) if q in sv.results else str(sv.measure(q))
                for q in report_qubits
            )
            counts[bits] = counts.get(bits, 0) + 1
        print(f"ideal sampling ({args.shots} shots):", file=out)

    label = ",".join(f"q{q}" for q in report_qubits)
    print(f"outcome ({label}) : count", file=out)
    for key in sorted(counts, key=lambda k: -counts[k]):
        print(f"  {key} : {counts[key]}", file=out)
    return 0


def _batch_device(spec, base: Path):
    """Resolve a manifest device spec: registry name, JSON file, or dict."""
    if isinstance(spec, dict):
        return Device.from_dict(spec)
    if not isinstance(spec, str):
        raise CliError(f"invalid device spec {spec!r} in manifest")
    if spec in available_devices():
        return get_device(spec)
    path = base / spec
    if path.suffix == ".json" or path.exists():
        try:
            return Device.from_json(path)
        except OSError as exc:
            raise CliError(
                f"cannot read device file {spec!r}: {exc.strerror or exc}"
            ) from exc
        except (KeyError, ValueError) as exc:
            raise CliError(f"invalid device file {spec!r}: {exc}") from exc
    raise CliError(
        f"unknown device {spec!r} (not a registry name or a .json file)"
    )


def _batch_jobs_from_manifest(args) -> list:
    """Expand a batch manifest into CompileJobs.

    The manifest is a JSON object with either an explicit ``jobs`` list
    (``{"circuit": ..., "device": ..., "config": {...}}`` entries) or a
    ``circuits`` x ``devices`` [x ``routers``] cross-product, with
    ``defaults`` merged into every job config.  Circuit and device file
    paths are resolved relative to the manifest's directory.
    """
    import json

    from .core.pipeline import PassConfig
    from .service import CompileJob

    if args.manifest == "-":
        text = sys.stdin.read()
        base = Path.cwd()
    else:
        try:
            text = Path(args.manifest).read_text()
        except OSError as exc:
            raise CliError(
                f"cannot read {args.manifest!r}: {exc.strerror or exc}"
            ) from exc
        base = Path(args.manifest).resolve().parent
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CliError("manifest must be a JSON object")

    defaults = manifest.get("defaults", {})
    if not isinstance(defaults, dict):
        raise CliError('manifest "defaults" must be an object')

    def make_config(overrides: dict) -> PassConfig:
        merged = {**defaults, **overrides}
        try:
            return PassConfig.from_dict(merged)
        except (TypeError, ValueError) as exc:
            raise CliError(f"invalid pass config {merged!r}: {exc}") from exc

    def read_qasm(spec: str) -> str:
        try:
            return (base / spec).read_text()
        except OSError as exc:
            raise CliError(
                f"cannot read circuit {spec!r}: {exc.strerror or exc}"
            ) from exc

    jobs = []
    for entry in manifest.get("jobs", []):
        if not isinstance(entry, dict) or "circuit" not in entry \
                or "device" not in entry:
            raise CliError(
                f'manifest job entries need "circuit" and "device": {entry!r}'
            )
        try:
            job = CompileJob.create(
                read_qasm(entry["circuit"]),
                _batch_device(entry["device"], base),
                make_config(entry.get("config", {})),
                job_id=entry.get("id"),
                timeout=entry.get("timeout"),
                metadata={"circuit": entry["circuit"]},
            )
        except ValueError as exc:
            raise CliError(f"invalid manifest job {entry!r}: {exc}") from exc
        jobs.append(job)

    circuits = manifest.get("circuits", [])
    devices = manifest.get("devices", [])
    if circuits and not devices:
        raise CliError('manifest "circuits" needs a "devices" list')
    routers = manifest.get("routers") or [None]
    for circ_spec in circuits:
        qasm = read_qasm(circ_spec)
        for dev_spec in devices:
            device = _batch_device(dev_spec, base)
            dev_label = dev_spec if isinstance(dev_spec, str) else "custom"
            for router in routers:
                overrides = {} if router is None else {"router": router}
                job_id = f"{circ_spec}@{dev_label}"
                if router is not None:
                    job_id += f"/{router}"
                jobs.append(
                    CompileJob.create(
                        qasm,
                        device,
                        make_config(overrides),
                        job_id=job_id,
                        metadata={"circuit": circ_spec},
                    )
                )

    if not jobs:
        raise CliError("manifest expands to zero jobs")
    return jobs


def _cmd_batch(args, out) -> int:
    import json

    from .service import CompileCache, CompileService

    if args.compare_serial:
        from .perf import compare_serial

        tracer, trace_ctx = _make_tracer(args)
        with trace_ctx:
            report = compare_serial(
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                limit=args.limit,
                retries=args.retries,
                timeout=args.timeout,
            )
        summary = report["summary"]
        print(
            f"{summary['cases']} jobs, {summary['workers']} workers:",
            file=out,
        )
        print(
            f"  serial        {summary['serial_seconds']:>8}s "
            f"({summary['serial_throughput']} jobs/s)",
            file=out,
        )
        print(
            f"  parallel cold {summary['parallel_cold_seconds']:>8}s "
            f"({summary['parallel_cold_throughput']} jobs/s, "
            f"{summary['parallel_speedup']}x vs serial)",
            file=out,
        )
        print(
            f"  warm cache    {summary['warm_seconds']:>8}s "
            f"({summary['warm_throughput']} jobs/s, "
            f"hit rate {summary['warm_hit_rate']:.0%})",
            file=out,
        )
        print(
            f"  artifacts_match_serial={summary['artifacts_match_serial']}",
            file=out,
        )
        if args.json_path:
            with open(args.json_path, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.json_path}", file=out)
        if tracer is not None:
            _write_trace(args, tracer, out, meta={"bench_summary": summary})
        return 0 if summary["artifacts_match_serial"] else 3

    if args.corpus == "perf":
        from .perf import corpus_jobs

        jobs = corpus_jobs(args.limit)
    elif args.manifest is not None:
        jobs = _batch_jobs_from_manifest(args)
        if args.limit is not None:
            jobs = jobs[: args.limit]
    else:
        raise CliError("batch needs a manifest file or --corpus")

    fault_plan = None
    if args.faults:
        from .resilience import FaultPlan

        try:
            text = args.faults.strip()
            if text.startswith("{"):
                fault_plan = FaultPlan.from_json(text)
            else:
                fault_plan = FaultPlan.from_file(args.faults)
        except (OSError, ValueError) as exc:
            raise CliError(f"bad fault plan: {exc}")

    cache = None if args.no_cache else CompileCache(directory=args.cache_dir)
    service = CompileService(
        cache,
        max_workers=args.jobs,
        retries=args.retries,
        default_timeout=args.timeout,
    )
    import time as _time

    tracer, trace_ctx = _make_tracer(args)
    t0 = _time.perf_counter()
    with trace_ctx:
        results = service.submit_batch(
            jobs,
            deadline=args.deadline,
            batch_timeout=args.batch_timeout,
            fault_plan=fault_plan,
        )
    elapsed = _time.perf_counter() - t0

    print(f"{'job':<44} {'status':<8} {'cache':<7} {'swaps':>5} {'sec':>8}",
          file=out)
    for res in results:
        metrics = res.metrics or {}
        swaps = metrics.get("added_swaps")
        compile_s = metrics.get("compile_s")
        print(
            f"{res.job_id:<44} {res.status:<8} "
            f"{res.cache_hit or '-':<7} "
            f"{'-' if swaps is None else swaps:>5} "
            f"{'-' if compile_s is None else format(compile_s, '.4f'):>8}",
            file=out,
        )
        if res.error:
            print(f"    error: {res.error}", file=out)

    n_ok = sum(1 for r in results if r.ok)
    n = len(results)
    status_counts = {}
    for res in results:
        status_counts[res.status] = status_counts.get(res.status, 0) + 1
    breakdown = ", ".join(
        f"{status} {count}"
        for status, count in sorted(status_counts.items())
        if status != "ok"
    )
    stats = service.stats()
    service.close()
    print(
        f"\n{n_ok}/{n} ok"
        + (f" ({breakdown})" if breakdown else "")
        + f" in {elapsed:.3f}s "
        f"({n / elapsed:.1f} jobs/s), "
        f"cache hit rate {stats['service']['hit_rate']:.0%}",
        file=out,
    )
    if args.json_path:
        report = {
            "schema": 1,
            "jobs": [r.to_dict() for r in results],
            "summary": {
                "total": n,
                "ok": n_ok,
                "statuses": status_counts,
                "seconds": round(elapsed, 4),
                "throughput": round(n / elapsed, 2) if elapsed else None,
            },
            "service_stats": stats,
        }
        if tracer is not None:
            report["trace"] = service.trace_report(tracer)
        with open(args.json_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json_path}", file=out)
    if tracer is not None:
        _write_trace(args, tracer, out, meta={"service_stats": stats})
    # Degraded compiles still produced an artefact: the batch succeeded,
    # the per-job statuses carry the nuance.
    return 0 if all(r.completed for r in results) else 4


def _cmd_serve(args, out) -> int:
    from .service import (
        AsyncCompileService,
        CompileCache,
        CompileService,
        GatewayServer,
    )

    cache = None if args.no_cache else CompileCache(directory=args.cache_dir)
    service = CompileService(
        cache,
        max_workers=args.jobs,
        retries=args.retries,
        default_timeout=args.timeout,
        default_deadline=args.deadline,
    )
    gateway = AsyncCompileService(
        service,
        max_queue_depth=args.queue_depth,
        tenant_burst=args.tenant_burst,
        tenant_rate=args.tenant_rate,
    )
    gateway._owns_service = True  # serve built it, serve tears it down
    if args.prewarm:
        service.prewarm()
    server = GatewayServer(
        (args.host, args.port), gateway, verbose=args.verbose
    )
    # The smoke harness parses this line to find an ephemeral port, so it
    # must be flushed before serve_forever blocks.
    print(
        f"gateway listening on http://{args.host}:{server.port}",
        file=out,
    )
    try:
        out.flush()
    except (AttributeError, OSError):
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        gateway.close(drain=True)
    return 0


def _cmd_trace(args, out) -> int:
    import json

    from .obs import format_summary, load_trace, summarize_trace

    try:
        trace = load_trace(args.file)
    except OSError as exc:
        raise CliError(
            f"cannot read {args.file!r}: {exc.strerror or exc}"
        ) from exc
    except (json.JSONDecodeError, ValueError) as exc:
        raise CliError(f"invalid trace file {args.file!r}: {exc}") from exc
    rows = summarize_trace(trace)
    if not rows:
        print("trace contains no spans", file=out)
        return 0
    counters = trace.get("otherData", {}).get("counters")
    print(format_summary(rows, counters=counters), file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    commands = {
        "devices": lambda: _cmd_devices(out),
        "info": lambda: _cmd_info(args, out),
        "map": lambda: _cmd_map(args, out),
        "simulate": lambda: _cmd_simulate(args, out),
        "batch": lambda: _cmd_batch(args, out),
        "serve": lambda: _cmd_serve(args, out),
        "trace": lambda: _cmd_trace(args, out),
    }
    try:
        handler = commands[args.command]
    except KeyError:
        raise SystemExit(f"unknown command {args.command!r}") from None
    try:
        return handler()
    except CliError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
