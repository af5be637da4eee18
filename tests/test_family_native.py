"""The SABRE-family kernel against the Python loop it mirrors.

:func:`repro.mapping.routing.family.route_family` runs the front-layer
loop of sabre, latency and reliability in one native crossing when the
kernel is available, and in Python when it is disabled or declines the
input.  Each input here is routed twice: with the kernel, and with the
wrapper forced to decline, which runs the Python loop.  Both must give
the same routed circuit (the ``repr`` of every gate), the same initial
and final placements, SWAP count, router name, metadata and counters,
or raise the same exception type with the same message.

The options cover what each mirror rule of the kernel depends on:
commutation on and off; look-ahead 0, 1 and 20; decay on and off;
``latency_weight`` 0, 0.1, 1 and -0.5; int, float and directed
caller-given matrices; uniform, random and three-level noise.  The
circuits carry conditioned gates, barriers with and without operands,
measurements and resets.  Explicit cases cover the paths where the
kernel hands the circuit back or retries: the stall valve, a device
with no candidate SWAP, a gate on three qubits, an expired deadline, a
route longer than the first event buffer, a matrix of ``bool``, and a
placement smaller than the circuit; one more test lists which matrix
entries the kernel accepts.

The module runs only when the kernel is available.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.core.gates import Gate
from repro.devices import linear_device
from repro.devices.device import Device
from repro.mapping.placement import Placement
from repro.mapping.routing import family, route_latency, route_reliability, route_sabre
from repro.mapping.routing._astar_native import Distances, kernel_stats, warm_kernel
from repro.obs import Tracer, use_tracer
from repro.resilience import Deadline, DeadlineExceeded, use_deadline
from repro.workloads import random_circuit

from .test_routing_reference import _DEVICES, _SETTINGS, _chain, _noise, dense_circuits

pytestmark = pytest.mark.skipif(
    not warm_kernel(),
    reason="native kernel unavailable (no C compiler or REPRO_NO_NATIVE=1)",
)

_ONE_QUBIT = ["h", "x", "t", "rz", "measure", "prep_z"]
_TWO_QUBIT = ["cnot", "cnot", "cz", "swap", "cp"]


@st.composite
def circuits(draw, num_qubits: int, max_gates: int) -> Circuit:
    """Mostly two-qubit gates, with single-qubit gates, measurements,
    resets, conditioned gates and barriers on at most two qubits: every
    gate the kernel accepts."""
    circuit = Circuit(num_qubits)
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.integers(0, 99))
        qubits = draw(st.permutations(range(num_qubits)))
        condition = None
        if draw(st.integers(0, 9)) == 0:
            condition = (draw(st.integers(0, num_qubits - 1)), draw(st.integers(0, 1)))
        if kind < 60 and num_qubits >= 2:
            name = draw(st.sampled_from(_TWO_QUBIT))
            params = (0.25,) if name == "cp" else ()
            circuit.append(Gate(name, tuple(qubits[:2]), params, condition))
        elif kind < 90:
            name = draw(st.sampled_from(_ONE_QUBIT))
            params = (-0.5,) if name == "rz" else ()
            if name in ("measure", "prep_z"):
                condition = None
            circuit.append(Gate(name, (qubits[0],), params, condition))
        else:
            width = draw(st.integers(0, min(2, num_qubits)))
            circuit.append(Gate("barrier", tuple(sorted(qubits[:width]))))
    return circuit


@st.composite
def problems(draw, devices=tuple(_DEVICES), max_gates: int = 40):
    """A device, a circuit on at most 12 of its qubits, and a placement
    (``None`` for the trivial one)."""
    name = draw(st.sampled_from(devices))
    device = _DEVICES[name]
    num_qubits = draw(st.integers(1, min(12, device.num_qubits)))
    if num_qubits >= 2 and draw(st.booleans()):
        circuit = draw(dense_circuits(num_qubits, max_gates))
    else:
        circuit = draw(circuits(num_qubits, max_gates))
    placement = None
    if draw(st.booleans()):
        placement = Placement(
            draw(st.permutations(range(device.num_qubits))), num_qubits
        )
    return device, circuit, placement


@contextmanager
def _declined():
    """The kernel wrapper declines every input: the Python loop runs."""
    with mock.patch.object(family, "route_family_native", lambda *a, **k: None):
        yield


def _outcome(route, circuit, device, placement, deadline=None, **options):
    """``(outcome, path)``: the comparable outcome, and which loop ran."""
    tracer = Tracer()
    before = kernel_stats()
    try:
        with use_tracer(tracer), use_deadline(deadline):
            result = route(circuit, device, placement, **options)
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        outcome = ("raised", type(exc), str(exc))
    else:
        outcome = (
            "routed",
            [repr(gate) for gate in result.circuit.gates],
            result.circuit.num_qubits,
            result.circuit.name,
            (result.initial.prog_to_phys(), result.initial.num_program),
            (result.final.prog_to_phys(), result.final.num_program),
            result.added_swaps,
            result.router,
            result.metadata,
        )
    after = kernel_stats()
    counters = tracer.counters()
    ran = {
        "native": after["family_native_calls"] - before["family_native_calls"],
        "python": after["family_python_calls"] - before["family_python_calls"],
    }
    # Each call counts once, in the kernel stats and as obs counters.
    assert sum(ran.values()) == 1, ran
    assert counters.get("family.native_calls", 0) == ran["native"]
    assert counters.get("family.python_calls", 0) == ran["python"]
    shared = {k: v for k, v in counters.items() if not k.startswith("family.")}
    return outcome + (shared,), "native" if ran["native"] else "python"


def assert_kernel_mirrors_python(route, problem, eligible=True, **options):
    """Route with the kernel and with the Python loop; return the path
    the kernel leg took.  Every call runs under a generous deadline, so
    a loop that stops making progress fails instead of hanging."""
    device, circuit, placement = problem
    with _declined():
        expected, path = _outcome(
            route, circuit, device, placement, Deadline.after(20.0), **options
        )
    assert path == "python"
    actual, path = _outcome(
        route, circuit, device, placement, Deadline.after(20.0), **options
    )
    assert actual == expected
    # Only the stall valve hands an accepted circuit back to Python.
    if eligible and actual[0] == "routed" and not any(
        k.endswith(".forced_routes") for k in actual[-1]
    ):
        assert path == "native"
    return path


@given(
    problems(),
    st.sampled_from([0, 1, 20]),
    st.sampled_from([0.5, 0.0, 1.5]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, "float", "int", "uniform", "random", "levels"]),
)
@settings(**_SETTINGS)
def test_sabre_kernel_mirrors_python(
    problem, lookahead, weight, use_decay, commutation, distances
):
    device = problem[0]
    options = dict(lookahead=lookahead, extended_weight=weight,
                   use_decay=use_decay, commutation=commutation)
    hops = device.distance_matrix
    if distances == "float":
        # A directed cost: each pair costs more one way round.
        options["distance_matrix"] = [
            [d + (0.375 if a > b else 0.0) for b, d in enumerate(row)]
            for a, row in enumerate(hops)
        ]
    elif distances == "int":
        options["distance_matrix"] = [
            [3 * d + (a > b) for b, d in enumerate(row)] for a, row in enumerate(hops)
        ]
    elif distances is not None:
        options["distance_matrix"] = _noise(device, distances).weighted_distance_matrix(device)
    assert_kernel_mirrors_python(route_sabre, problem, **options)


@given(
    st.data(),
    st.sampled_from([0, 1, 20]),
    st.sampled_from([0.5, 0.0, 1.5]),
    st.sampled_from([0.1, 0, 1, -0.5]),
    st.booleans(),
)
@settings(**_SETTINGS)
def test_latency_kernel_mirrors_python(data, lookahead, weight, latency_weight, commutation):
    # A large or negative weight can cycle into the stall valve; each
    # forced route takes 4 n^2 + 16 decisions, so those run on linear 9.
    devices = tuple(_DEVICES) if latency_weight in (0, 0.1) else ("linear9",)
    problem = data.draw(problems(devices=devices))
    assert_kernel_mirrors_python(
        route_latency, problem, lookahead=lookahead, extended_weight=weight,
        latency_weight=latency_weight, commutation=commutation,
    )


@given(
    problems(),
    st.sampled_from([0, 1, 20]),
    st.sampled_from([0.5, 0.0, 1.5]),
    st.sampled_from([None, "uniform", "random", "levels"]),
    st.integers(0, 3),
)
@settings(**_SETTINGS)
@example(
    # Three-level noise: a re-sum in another order picks another SWAP.
    (_DEVICES["qx5"], random_circuit(12, 40, seed=2, two_qubit_fraction=0.8), None),
    0, 0.5, "levels", 2,
)
def test_reliability_kernel_mirrors_python(problem, lookahead, weight, noise, seed):
    options = dict(lookahead=lookahead, extended_weight=weight)
    if noise is not None:
        options["noise"] = _noise(problem[0], noise, seed)
    assert_kernel_mirrors_python(route_reliability, problem, **options)


_NAN = float("nan")


@pytest.mark.parametrize(
    "entries, accepted",
    [
        ([0, 1, 2**31], True),
        ([0, -(2**31), 1.5], True),
        ([0, 1, 2**31 + 1], False),
        ([_NAN, 1, 2], True),
        ([_NAN, 1, -(2**31) - 1], False),
        ([1, _NAN, 2**40], False),
        ([float("-inf"), 1, 2], True),
        ([float("-inf"), 1, 2**40], False),
        ([0, 1, True], False),
        ([0.5, 1, "2"], False),
    ],
)
def test_matrix_entries_the_kernel_accepts(entries, accepted):
    # Exact ints within 2**31 and floats; a NaN or an infinity must not
    # hide an int out of range from the whole-list bound test.
    matrix = [entries[i:] + entries[:i] for i in range(3)]
    table = Distances(matrix).doubles(3)
    assert (table is not None) == accepted
    if accepted:
        assert table.tobytes() == array("d", [d for row in matrix for d in row]).tobytes()


class TestKernelHandsBack:
    def test_stall_valve_reruns_in_python(self):
        # A negative latency weight cycles on this input until the stall
        # valve fires; the kernel hands the circuit back and the Python
        # loop force-routes it.
        circuit = random_circuit(9, 16, seed=0, two_qubit_fraction=0.8)
        problem = (linear_device(9), circuit, None)
        path = assert_kernel_mirrors_python(route_latency, problem, latency_weight=-0.5)
        assert path == "python"

    def test_no_candidate_raises_the_same_error(self):
        # Qubits 2 and 3 have no edge at all: no candidate SWAP.
        device = Device("split", 4, [(0, 1)], ["cnot", "h"])
        circuit = Circuit(4).cnot(2, 3)
        for route in (route_sabre, route_latency, route_reliability):
            with _declined():
                expected, _ = _outcome(route, circuit, device, None)
            actual, path = _outcome(route, circuit, device, None)
            assert actual == expected
            assert actual[0] == "raised" and "no candidate swaps" in actual[2]
            assert path == "python"

    def test_three_qubit_gate_is_declined(self):
        circuit = Circuit(3).h(0).toffoli(0, 1, 2)
        problem = (linear_device(5), circuit, None)
        for route in (route_sabre, route_latency, route_reliability):
            assert assert_kernel_mirrors_python(route, problem, False) == "python"

    def test_bool_matrix_is_declined(self):
        device = linear_device(6)
        matrix = [[bool(d) if d < 2 else d for d in row] for row in device.distance_matrix]
        problem = (device, _chain(6), None)
        path = assert_kernel_mirrors_python(
            route_sabre, problem, False, distance_matrix=matrix
        )
        assert path == "python"

    def test_expired_deadline_aborts_in_the_kernel(self):
        circuit = _chain(9)
        for route in (route_sabre, route_latency, route_reliability):
            with _declined():
                expected, _ = _outcome(route, circuit, linear_device(9), None, Deadline.after(0))
            actual, path = _outcome(route, circuit, linear_device(9), None, Deadline.after(0))
            assert actual[:2] == expected[:2] == ("raised", DeadlineExceeded)
            assert actual == expected
            assert path == "native"

    def test_long_route_grows_the_event_buffer(self):
        # Two far CNOTs on a 60-qubit chain need 114 SWAPs, more events
        # than the first buffer (4 per gate + 64) holds.
        circuit = Circuit(60).cnot(0, 59).cnot(1, 58)
        problem = (linear_device(60), circuit, None)
        for route in (route_sabre, route_latency, route_reliability):
            path = assert_kernel_mirrors_python(route, problem)
            assert path == "native"
            assert route(circuit, problem[0]).added_swaps + 2 > 4 * 2 + 64

    def test_qubit_beyond_the_placement_is_declined(self):
        # A caller's placement smaller than the circuit: the kernel must
        # not index past it; the Python loop raises as it always did.
        circuit = Circuit(6).cnot(0, 5)
        problem = (linear_device(4), circuit, Placement([0, 1, 2, 3], 4))
        for route in (route_sabre, route_latency, route_reliability):
            assert assert_kernel_mirrors_python(route, problem, False) == "python"
