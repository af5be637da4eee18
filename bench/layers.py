"""Per-layer spans recorded from outside the program.

For the traced pass only, :class:`LayerTrace` wraps the layer entry
points that :mod:`repro.core.pipeline` and :mod:`repro.service` call
(placers, router, lowering passes, schedulers, QASM reader/writer, cache
keys, cache tiers, artefact (de)serialisation, the engine) so that every
call opens a span on a private :class:`repro.obs.Tracer`.  That tracer is
never installed as the current tracer, so the program's own spans stay
off and the wrapped code runs exactly as it does untraced.  Layers are
named by module.

Wrappers patch the name each *caller* module looks up at call time, so
calls the benchmark makes itself (the output checker, artefact parsing
outside the timed region) are never attributed to a layer.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict

import repro.core.pipeline as pipeline
import repro.service.artifact as artifact
import repro.service.cache as cache
import repro.service.engine as engine
import repro.service.jobs as jobs
import repro.service.keys as keys
from repro.mapping.placement import PLACERS
from repro.obs import Tracer

__all__ = ["LayerTrace", "REQUIRED", "layer_metrics"]

#: (owner, attribute, layer) of every wrapped entry point.  The owner is
#: the module or class whose attribute the program looks up.
_TARGETS = (
    (pipeline, "compile_with_config", "core.pipeline"),
    (engine, "compile_with_config", "core.pipeline"),
    (pipeline, "route", "mapping.routing"),
    (pipeline, "check_connectivity", "mapping.routing"),
    (pipeline, "decompose_circuit", "decompose"),
    (pipeline, "fix_directions", "mapping.direction"),
    (pipeline, "optimize_circuit", "optimize"),
    (pipeline, "asap_schedule", "mapping.scheduler"),
    (pipeline, "alap_schedule", "mapping.scheduler"),
    (pipeline, "schedule_with_constraints", "mapping.control"),
    (pipeline, "parse_qasm", "qasm"),
    (pipeline, "to_openqasm", "qasm"),
    (engine, "parse_qasm", "qasm"),
    (artifact, "parse_qasm", "qasm"),
    (artifact, "to_openqasm", "qasm"),
    (keys, "parse_qasm", "qasm"),
    (keys, "to_openqasm", "qasm"),
    (jobs, "compute_key", "service.keys"),
    (cache, "stage_key", "service.keys"),
    (engine, "result_to_artifact", "service.artifact"),
    (jobs, "artifact_to_result", "service.artifact"),
    (cache.CompileCache, "lookup", "service.cache"),
    (cache.CompileCache, "put", "service.cache"),
    (cache.CacheStageStore, "load", "service.cache"),
    (cache.CacheStageStore, "store", "service.cache"),
    (engine.CompileService, "submit", "service.engine"),
    (engine.CompileService, "submit_batch", "service.engine"),
)

#: Entry points each workload must reach in its traced pass; a zero call
#: count fails the run (a renamed or bypassed path would otherwise read
#: as a free layer).
_LIBRARY = (
    "PLACERS", "route", "check_connectivity", "decompose_circuit",
    "fix_directions", "asap_schedule",
)
REQUIRED = {
    "small_devices": _LIBRARY,
    "large_devices": _LIBRARY,
    "algorithms": _LIBRARY + ("optimize_circuit",),
    "router_sweep": _LIBRARY + (
        "alap_schedule", "schedule_with_constraints", "parse_qasm",
        "to_openqasm", "compute_key", "stage_key", "lookup", "put", "load",
        "store", "result_to_artifact", "artifact_to_result", "submit",
    ),
    "gateway_stream": ("compute_key", "lookup", "put", "submit_batch"),
}

#: Layer groups reported as one metric prefix.
_GROUPS = {
    "placement": ("mapping.placement",),
    "routing": ("mapping.routing",),
    "lower": ("decompose", "mapping.direction", "optimize"),
    "schedule": ("mapping.scheduler", "mapping.control"),
}


class LayerTrace:
    """Context manager installing span wrappers on a private tracer."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.calls: Counter = Counter()
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str, layer: str):
        tracer, calls = self.tracer, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            with tracer.span(name, pass_=layer):
                return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "LayerTrace":
        for owner, attr, layer in _TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue  # renamed upstream: REQUIRED reports it
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, attr, layer))
        for name, placer in list(PLACERS.items()):
            self._restore.append((PLACERS, name, placer))
            PLACERS[name] = self._wrap(placer, "PLACERS", "mapping.placement")
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            if owner is PLACERS:
                PLACERS[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def missing(self, workload: str) -> list[str]:
        """Required entry points this pass never reached."""
        return [n for n in REQUIRED[workload] if not self.calls[n]]


def _self_times(events: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(events)
    by_thread = defaultdict(list)
    for i, e in enumerate(events):
        by_thread[(e["pid"], e["tid"])].append(i)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack: list[int] = []
        for i in indices:
            start = events[i]["ts"]
            while stack and (
                events[stack[-1]]["ts"] + events[stack[-1]]["dur"] <= start
            ):
                stack.pop()
            if stack:
                child[stack[-1]] += events[i]["dur"]
            stack.append(i)
    return [e["dur"] - c for e, c in zip(events, child)]


def layer_metrics(events: list[dict], latencies: list[float]) -> dict:
    """Per-layer time metrics of one traced pass whose jobs took
    ``latencies`` seconds each.

    ``*.ms_per_job`` are self times per traced job; ``*.share`` are self
    times over the summed ``compile_with_config`` spans, and
    ``pipeline.unattributed_share`` is that span's own self time, so on
    library workloads the four shares and it sum to one.
    """
    selfs = _self_times(events)
    by_layer: Counter = Counter()
    by_name: Counter = Counter()
    totals: Counter = Counter()
    counts: Counter = Counter()
    for e, s in zip(events, selfs):
        by_layer[e["pass"]] += s
        by_name[e["name"]] += s
        totals[e["name"]] += e["dur"]
        counts[e["name"]] += 1
    # compile_with_config never re-enters itself, so its spans are
    # disjoint and their sum is the time spent compiling.
    compile_s = sum(e["dur"] for e in events if e["pass"] == "core.pipeline")
    jobs_done = max(len(latencies), 1)
    out = {}
    for group, layers in _GROUPS.items():
        busy = sum(by_layer[layer] for layer in layers)
        out[f"{group}.ms_per_job"] = busy * 1e3 / jobs_done
        out[f"{group}.share"] = busy / compile_s if compile_s else 0.0
    out["pipeline.unattributed_share"] = (
        by_layer["core.pipeline"] / compile_s if compile_s else 0.0
    )
    out["qasm.parse_ms_per_job"] = by_name["parse_qasm"] * 1e3 / jobs_done
    out["qasm.write_ms_per_job"] = by_name["to_openqasm"] * 1e3 / jobs_done
    out["keys.ms_per_job"] = by_layer["service.keys"] * 1e3 / jobs_done
    out["artifact.ms_per_job"] = by_layer["service.artifact"] * 1e3 / jobs_done
    out["cache.lookup_ms"] = (
        totals["lookup"] * 1e3 / counts["lookup"] if counts["lookup"] else 0.0
    )
    out["cache.put_ms"] = (
        totals["put"] * 1e3 / counts["put"] if counts["put"] else 0.0
    )
    job_s = sum(latencies)
    out["engine.compile_share"] = (
        compile_s / job_s if job_s and counts["submit"] else 0.0
    )
    return out
