"""Tests for the tracing/metrics layer (repro.obs)."""

import json
import threading
import time

import pytest

from repro.core.pipeline import compile_circuit
from repro.devices import get_device, quantum_dot_device
from repro.mapping.routing import route_latency, route_reliability, route_sabre, route_shuttle
from repro.mapping.routing._astar_native import kernel_stats, warm_kernel
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    add_counter,
    current_tracer,
    format_summary,
    load_trace,
    summarize_trace,
    to_chrome_trace,
    trace_span,
    use_tracer,
    write_chrome_trace,
)
from repro.workloads import random_circuit


class TestSpans:
    def test_nesting_depths_and_order(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer", pass_="a"):
                with trace_span("inner", pass_="b"):
                    pass
                with trace_span("inner2", pass_="b"):
                    pass
        events = tracer.finished()
        # Completion order: children finish before their parent.
        assert [e["name"] for e in events] == ["inner", "inner2", "outer"]
        by_name = {e["name"]: e for e in events}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner2"]["depth"] == 1
        # Children are contained in the parent's time window.
        outer = by_name["outer"]
        for child in ("inner", "inner2"):
            e = by_name[child]
            assert outer["ts"] <= e["ts"]
            assert e["ts"] + e["dur"] <= outer["ts"] + outer["dur"] + 1e-9

    def test_attrs_and_counters(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("work", pass_="p", label="x") as sp:
                assert sp.enabled
                sp.set(gates_in=10, gates_out=12)
                add_counter("widgets", 3)
                add_counter("widgets", 2)
        [event] = tracer.finished()
        assert event["pass"] == "p"
        assert event["args"]["label"] == "x"
        assert event["args"]["gates_in"] == 10
        assert event["args"]["widgets"] == 5
        assert tracer.counters() == {"widgets": 5}

    def test_counter_outside_any_span_is_tracer_wide(self):
        tracer = Tracer()
        with use_tracer(tracer):
            add_counter("loose", 7)
        assert tracer.finished() == []
        assert tracer.counters() == {"loose": 7}

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError):
                with trace_span("boom", pass_="p"):
                    raise ValueError("nope")
        [event] = tracer.finished()
        assert event["args"]["error"] == "ValueError"
        assert event["dur"] >= 0

    def test_threads_nest_independently(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(tag):
            with use_tracer(tracer):
                with trace_span(f"outer-{tag}", pass_="t"):
                    barrier.wait()
                    with trace_span(f"inner-{tag}", pass_="t"):
                        pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = tracer.finished()
        assert len(events) == 4
        for e in events:
            expected = 0 if e["name"].startswith("outer") else 1
            assert e["depth"] == expected

    def test_absorb_merges_foreign_events(self):
        worker = Tracer()
        with use_tracer(worker):
            with trace_span("remote", pass_="p"):
                add_counter("k", 2)
        parent = Tracer()
        parent.absorb(worker.finished())
        for name, value in worker.counters().items():
            parent.counter(name, value)
        assert [e["name"] for e in parent.finished()] == ["remote"]
        assert parent.counters() == {"k": 2}


class TestNullPath:
    def test_default_tracer_is_null(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_null_span_is_inert(self):
        with trace_span("anything", pass_="p") as sp:
            assert not sp.enabled
            sp.set(x=1)
            sp.count("y")
        add_counter("z", 5)
        assert NULL_TRACER.finished() == []
        assert NullTracer().counters() == {}

    def test_disabled_overhead_smoke(self):
        # The null path is one ContextVar.get plus an empty context
        # manager; budget it generously so the smoke never flakes while
        # still catching an accidentally-enabled default tracer.
        def bare():
            total = 0
            for i in range(2000):
                total += i
            return total

        def instrumented():
            total = 0
            for i in range(2000):
                with trace_span("hot", pass_="p"):
                    total += i
            return total

        def best_of(fn, repeats=5):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        base = best_of(bare)
        traced = best_of(instrumented)
        # Per-iteration null-span cost stays within a few microseconds.
        assert (traced - base) / 2000 < 5e-6


class TestChromeTrace:
    def _sample_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("compile", pass_="pipeline"):
                with trace_span("routing", pass_="routing") as sp:
                    sp.set(added_swaps=3, gates_in=10, gates_out=19)
        return tracer

    def test_schema_round_trip(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.json"
        write_chrome_trace(
            path, tracer.finished(), counters=tracer.counters(),
            meta={"note": "test"},
        )
        doc = load_trace(path)
        assert isinstance(doc["traceEvents"], list)
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid",
                                  "tid", "args"}
            assert event["ts"] >= 0 and event["dur"] >= 0  # rebased µs
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["note"] == "test"
        # The file itself is plain JSON a trace viewer can open.
        json.loads(path.read_text())

    def test_load_trace_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"no": "traceEvents"}')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_summarize_and_format(self):
        tracer = self._sample_tracer()
        doc = to_chrome_trace(tracer.finished())
        rows = summarize_trace(doc)
        by_pass = {r["pass"]: r for r in rows}
        assert by_pass["routing"]["swaps"] == 3
        assert by_pass["routing"]["gates_delta"] == 9
        assert rows[0]["pass"] == "pipeline"  # root spans sort first
        assert rows[0]["share"] == pytest.approx(1.0, abs=0.01)
        text = format_summary(rows, counters={"k": 2})
        assert "routing" in text and "counters:" in text


class TestPipelineIntegration:
    def _traced_compile(self, **kwargs):
        # Large enough that routing genuinely swaps and the fixed span
        # bookkeeping overhead is a negligible share of the compile.
        circuit = random_circuit(12, 60, seed=7, two_qubit_fraction=0.6)
        device = get_device("ibm_qx5")
        tracer = Tracer()
        with use_tracer(tracer):
            result = compile_circuit(circuit, device, **kwargs)
        return tracer, result

    def test_stage_spans_cover_compile_wall_time(self):
        tracer, _ = self._traced_compile()
        events = tracer.finished()
        [root] = [e for e in events if e["pass"] == "pipeline"]
        stages = [e for e in events if e["depth"] == 1]
        covered = sum(e["dur"] for e in stages)
        assert {e["pass"] for e in stages} >= {
            "placement", "routing", "decompose", "direction-fix",
            "verify", "schedule",
        }
        # Acceptance criterion: stage spans account for >=95% of the
        # measured compile span (the stages are the compile).
        assert covered >= 0.95 * root["dur"]
        assert covered <= root["dur"] * 1.01

    def test_root_span_carries_headline_metrics(self):
        tracer, result = self._traced_compile()
        [root] = [e for e in tracer.finished() if e["pass"] == "pipeline"]
        assert root["args"]["added_swaps"] == result.added_swaps
        assert root["args"]["flips"] == result.flips
        assert root["args"]["gates_out"] == result.native.size()

    def test_router_counters_present_when_traced(self):
        tracer, _ = self._traced_compile(router="sabre")
        counters = tracer.counters()
        assert counters.get("sabre.swap_decisions", 0) > 0
        assert counters.get("sabre.swap_candidates_scored", 0) > 0
        astar_tracer, _ = self._traced_compile(router="astar")
        counters = astar_tracer.counters()
        layers = counters.get("astar.native_layers", 0) + counters.get(
            "astar.python_layers", 0
        )
        assert layers > 0

    @pytest.mark.parametrize("route", [route_latency, route_reliability])
    def test_family_router_counters(self, route):
        # Each decision applies one SWAP; only a forced route adds more.
        circuit = random_circuit(12, 60, seed=7, two_qubit_fraction=0.6)
        tracer = Tracer()
        with use_tracer(tracer):
            result = route(circuit, get_device("ibm_qx5"))
        counters = tracer.counters()
        assert f"{result.router}.forced_routes" not in counters
        assert counters[f"{result.router}.swap_decisions"] == result.added_swaps > 0
        assert counters[f"{result.router}.swap_candidates_scored"] >= result.added_swaps

    @pytest.mark.parametrize("route", [route_sabre, route_latency, route_reliability])
    def test_family_path_counters(self, route):
        # Every family call counts once, as native or Python, matching
        # the process-wide kernel stats.
        circuit = random_circuit(12, 60, seed=7, two_qubit_fraction=0.6)
        tracer = Tracer()
        before = kernel_stats()
        with use_tracer(tracer):
            route(circuit, get_device("ibm_qx5"))
        after = kernel_stats()
        counters = tracer.counters()
        native = counters.get("family.native_calls", 0)
        python = counters.get("family.python_calls", 0)
        assert native + python == 1
        assert native == after["family_native_calls"] - before["family_native_calls"]
        assert python == after["family_python_calls"] - before["family_python_calls"]
        assert native == (1 if warm_kernel() else 0)

    def test_shuttle_counters(self):
        # Shuttle has no kernel mirror: every call is a Python family call,
        # with the family's counters under its own name.
        circuit = random_circuit(6, 40, seed=9, two_qubit_fraction=0.6)
        tracer = Tracer()
        before = kernel_stats()["family_python_calls"]
        with use_tracer(tracer):
            result = route_shuttle(circuit, quantum_dot_device(4, 4))
        counters = tracer.counters()
        assert counters["family.python_calls"] == 1
        assert "family.native_calls" not in counters
        assert kernel_stats()["family_python_calls"] == before + 1
        moves = result.metadata["shuttles"] + result.metadata["swaps"]
        assert moves > result.metadata["swaps"] > 0
        assert "shuttle.forced_routes" not in counters
        assert counters["shuttle.swap_decisions"] == moves == result.added_swaps
        assert counters["shuttle.swap_candidates_scored"] > moves

    def test_optimizer_counters(self):
        # QX5's native set has ``u``, so the second optimize call fuses.
        tracer, _ = self._traced_compile(optimize=True)
        counters = tracer.counters()
        assert counters["optimize.rounds"] > 0
        assert 0 < counters["optimize.runs_synthesised"] <= counters[
            "optimize.runs_fused"
        ]

    def test_optimizer_run_counters_stay_zero_without_fusion(self):
        circuit = random_circuit(12, 60, seed=7, two_qubit_fraction=0.6)
        tracer = Tracer()
        with use_tracer(tracer):
            compile_circuit(circuit, get_device("surface17"), optimize=True)
        counters = tracer.counters()
        assert counters["optimize.rounds"] > 0
        assert counters.get("optimize.runs_fused", 0) == 0
        assert counters.get("optimize.runs_synthesised", 0) == 0

    def test_untraced_compile_records_nothing(self):
        circuit = random_circuit(5, 15, seed=3, two_qubit_fraction=0.6)
        compile_circuit(circuit, get_device("ibm_qx4"))
        assert current_tracer().finished() == []
