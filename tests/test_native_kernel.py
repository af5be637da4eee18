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
"""

import pytest

from repro.devices import grid_device, heavy_hex_device, linear_device
from repro.mapping.routing import route_astar
from repro.mapping.routing import astar as astar_mod
from repro.mapping.routing._astar_native import kernel_stats, warm_kernel
from repro.resilience import Deadline, use_deadline
from repro.workloads import random_circuit

from .seed_baseline import fingerprint

pytestmark = pytest.mark.skipif(
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
