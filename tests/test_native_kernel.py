"""Large-device tests for the multi-word native A* kernel.

The original C kernel packed one search state into a single 64-bit word,
refusing any device with more than 64 qubits (or edges).  These tests
pin the lifted cap: fixed-seed circuits on 80-119-qubit grid and
heavy-hex devices must (a) actually take the native path — asserted via
``kernel_stats()`` counter deltas, not just availability — with or
without a cooperative deadline, and (b) produce byte-identical output
to the pure-Python reference kernel.

The Python reference is obtained in-process by monkeypatching the native
entry point to report "unavailable", which exercises the exact fallback
path ``REPRO_NO_NATIVE=1`` takes.

:class:`TestPlacementPath` runs on every leg: a library compile, an
inline service job and a pool-worker job each count one placement, in
the kernel when it is available and in Python otherwise.
"""

import pytest

from repro.devices import grid_device, heavy_hex_device, linear_device
from repro.mapping.routing import route_astar
from repro.mapping.routing import astar as astar_mod
from repro.mapping.routing._astar_native import kernel_stats, warm_kernel
from repro.resilience import Deadline, use_deadline
from repro.sim.noise import NoiseModel
from repro.workloads import random_circuit

from .seed_baseline import fingerprint

needs_kernel = pytest.mark.skipif(
    not warm_kernel(),
    reason="native kernel unavailable (no C compiler or REPRO_NO_NATIVE=1)",
)

#: The large-corpus instances (same seeds as seed_baseline.LARGE_CORPUS) plus
#: the old cap boundary: 64 qubits (the single-word maximum) and 65 (the
#: first size the old kernel refused).
LARGE_CASES = [
    pytest.param(lambda: grid_device(8, 10), 12, 40, 21, id="grid8x10"),
    pytest.param(lambda: grid_device(10, 10), 12, 40, 9, id="grid10x10"),
    pytest.param(lambda: heavy_hex_device(7, 14), 12, 30, 17, id="heavyhex119"),
    pytest.param(lambda: linear_device(64), 10, 30, 4, id="linear64-boundary"),
    pytest.param(lambda: linear_device(65), 10, 30, 4, id="linear65-boundary"),
]


def _circuit(nq, ng, seed):
    return random_circuit(nq, ng, seed=seed, two_qubit_fraction=0.6)


def _python_reference(monkeypatch, circuit, device):
    """Route with the native entry point disabled (pure-Python path)."""
    with monkeypatch.context() as m:
        m.setattr(astar_mod, "solve_layers_batch_native", lambda *a, **k: None)
        return route_astar(circuit, device)


@needs_kernel
class TestLargeDeviceAStar:
    def _check_native_and_identical(self, monkeypatch, factory, nq, ng, seed,
                                    deadline):
        device = factory()
        circuit = _circuit(nq, ng, seed)

        before = kernel_stats()
        with use_deadline(deadline):
            native = route_astar(circuit, device)
        after = kernel_stats()

        # The native kernel must really have routed the layers: the
        # counters move, proving this was not a silent Python fallback.
        assert after["native_layers"] > before["native_layers"]
        assert after["python_layers"] == before["python_layers"]
        assert after["batch_calls"] == before["batch_calls"] + 1

        reference = _python_reference(monkeypatch, circuit, device)
        assert native.added_swaps == reference.added_swaps
        assert fingerprint(native.circuit) == fingerprint(reference.circuit)
        assert native.final.key() == reference.final.key()

    @pytest.mark.parametrize("factory,nq,ng,seed", LARGE_CASES)
    def test_native_path_used_and_byte_identical(
        self, monkeypatch, factory, nq, ng, seed
    ):
        self._check_native_and_identical(
            monkeypatch, factory, nq, ng, seed, None
        )

    @pytest.mark.parametrize("factory,nq,ng,seed", LARGE_CASES)
    def test_deadline_stays_native_and_byte_identical(
        self, monkeypatch, factory, nq, ng, seed
    ):
        # A deadline the search never reaches must not change the path:
        # the batch kernel polls it, so the compile stays native.
        self._check_native_and_identical(
            monkeypatch, factory, nq, ng, seed, Deadline.after(3600)
        )


@needs_kernel
class TestCapBoundary:
    def test_linear_64_and_65_route_identically(self):
        # 64 qubits was the single-word kernel's hard cap; 65 the first
        # refusal.  A chain one qubit longer must not change the routed
        # output of the same 10-qubit program (the extra qubit is idle),
        # and both sizes must go native.
        circuit = _circuit(10, 30, 4)
        results = {}
        for n in (64, 65):
            before = kernel_stats()
            routed = route_astar(circuit, linear_device(n))
            after = kernel_stats()
            assert after["native_layers"] > before["native_layers"], n
            results[n] = (routed.added_swaps, fingerprint(routed.circuit))
        assert results[64] == results[65]


@needs_kernel
class TestFamilyKernel:
    """The SABRE-family kernel: path counters and per-device tables."""

    def test_service_and_pool_report_family_calls(self):
        from repro.core.pipeline import PassConfig
        from repro.devices import get_device
        from repro.qasm import to_openqasm
        from repro.service import CompileCache, CompileJob, CompileService

        def job(seed, router):
            qasm = to_openqasm(random_circuit(5, 12, seed=seed, two_qubit_fraction=0.6))
            return CompileJob.create(
                qasm, get_device("ibm_qx4"), PassConfig(router=router),
                job_id=f"{router}{seed}",
            )

        routers = ["sabre", "latency", "reliability", "astar"]
        # Inline (one job): the service's own kernel stats move.
        service = CompileService(CompileCache())
        before = service.stats()["kernel"]
        assert service.submit_batch([job(0, "latency")])[0].ok
        after = service.stats()["kernel"]
        assert after["family_native_calls"] == before["family_native_calls"] + 1
        assert after["family_python_calls"] == before["family_python_calls"]
        # Pool: each worker reports its own counts.
        with CompileService(CompileCache(), max_workers=2) as service:
            ready = {rep["worker_id"]: rep for rep in service.prewarm()}
            jobs = [job(s, routers[s % 4]) for s in range(8)]
            assert all(r.ok for r in service.submit_batch(jobs))
            reports = service._pool.worker_stats()
            native = sum(
                rep["family_native_calls"] - ready[rep["worker_id"]]["family_native_calls"]
                for rep in reports
            )
            python = sum(
                rep["family_python_calls"] - ready[rep["worker_id"]]["family_python_calls"]
                for rep in reports
            )
            assert (native, python) == (6, 0)

    def test_tables_live_on_the_device_and_pickle(self):
        import pickle

        from repro.mapping.routing import route_latency, route_reliability, route_sabre

        device = grid_device(8, 10)
        circuit = _circuit(12, 40, 21)
        for route in (route_sabre, route_latency, route_reliability, route_astar):
            route(circuit, device)
        tables = device.routing_tables
        hops32 = tables["hops32"]
        doubles = tables["hops"].doubles(device.num_qubits)
        assert len(hops32) == len(doubles) == device.num_qubits**2
        # Reliability holds one set of weighted tables: the same edge
        # errors reuse it, other errors replace it.
        held = tables["reliability"]
        route_reliability(circuit, device)
        assert device.routing_tables["reliability"] is held
        noisy = NoiseModel.with_random_edge_errors(device, seed=3)
        fresh = grid_device(8, 10)
        assert fingerprint(route_reliability(circuit, device, noise=noisy).circuit) \
            == fingerprint(route_reliability(circuit, fresh, noise=noisy).circuit)
        assert device.routing_tables["reliability"] is not held
        assert fingerprint(route_reliability(circuit, device).circuit) \
            == fingerprint(route_reliability(circuit, fresh).circuit)
        # Built once: the next calls read the same tables.
        before = kernel_stats()
        route_astar(circuit, device)
        route_sabre(circuit, device)
        assert device.routing_tables["hops32"] is hops32
        assert device.routing_tables["hops"].doubles(device.num_qubits) is doubles
        after = kernel_stats()
        assert after["batch_calls"] == before["batch_calls"] + 1
        assert after["family_native_calls"] == before["family_native_calls"] + 1
        # array.array tables keep the device picklable, and they travel.
        clone = pickle.loads(pickle.dumps(device))
        assert clone.routing_tables["hops32"] == hops32
        assert fingerprint(route_sabre(circuit, clone).circuit) == fingerprint(
            route_sabre(circuit, device).circuit
        )


class TestPlacementPath:
    """Which path placed: every ``assignment_placement`` call counts once,
    in the kernel or, without it, in Python."""

    def test_library_inline_and_pool_count_one_placement_each(self):
        from repro.core.pipeline import PassConfig, compile_circuit
        from repro.devices import get_device
        from repro.qasm import to_openqasm
        from repro.service import CompileCache, CompileJob, CompileService

        ran, idle = ("placement_native_calls", "placement_python_calls")
        if not warm_kernel():
            ran, idle = idle, ran

        def job(seed):
            qasm = to_openqasm(random_circuit(5, 12, seed=seed, two_qubit_fraction=0.6))
            return CompileJob.create(
                qasm, get_device("ibm_qx4"), PassConfig(), job_id=f"place{seed}"
            )

        # A library compile (the default placer is assignment).
        before = kernel_stats()
        compile_circuit(_circuit(5, 12, 0), get_device("ibm_qx4"))
        after = kernel_stats()
        assert after[ran] == before[ran] + 1
        assert after[idle] == before[idle]
        # An inline service job.
        service = CompileService(CompileCache())
        before = service.stats()["kernel"]
        assert service.submit_batch([job(1)])[0].ok
        after = service.stats()["kernel"]
        assert after[ran] == before[ran] + 1
        assert after[idle] == before[idle]
        # Pool workers: each reports its own counts.
        with CompileService(CompileCache(), max_workers=2) as service:
            ready = {rep["worker_id"]: rep for rep in service.prewarm()}
            assert all(r.ok for r in service.submit_batch([job(s) for s in range(2, 6)]))
            reports = service._pool.worker_stats()
            counts = {
                key: sum(rep[key] - ready[rep["worker_id"]][key] for rep in reports)
                for key in (ran, idle)
            }
            assert counts == {ran: 4, idle: 0}
