"""The SABRE-family routers against copies of the loops they replaced.

:func:`repro.mapping.routing.family.route_family` runs sabre, latency,
reliability and shuttle as scoring policies over one front-layer loop
that keeps its state incrementally: after an emission pass it re-checks
only the gates that pass made ready, it reuses the look-ahead set until
a gate is emitted, it scores candidates from flat per-decision terms,
and it re-sums the reliability objective from those terms instead of
applying and reverting every candidate SWAP.
:mod:`tests.routing_reference` holds the four earlier loops.

On random circuits (conditioned gates, barriers, measurements and the
odd three-qubit gate included), random placements on five devices, and
every router option, both must return the same routed circuit, compared
by the ``repr`` of every gate, the same initial and final placements,
SWAP count, router name and metadata, or raise the same exception type
with the same message.  SABRE's counters must match too.

The options cover what each exactness rule of the loop depends on:
commutation on and off; look-ahead 0, 1 and 20; decay on and off and
several look-ahead weights; ``latency_weight`` 0, 0.1, 1 and a negative
value; a ``swap_penalty`` that favours one edge, so that the router
cycles into its forced route; a caller-given distance matrix that costs
more one way round than the other; and three noise models for the
weighted distances: uniform, full of ties; random edge errors, whose distances
are not symmetric to the last bit; and edge errors of three levels,
asymmetric and full of exact ties, where a lookup in the wrong order or
a sum in the wrong order changes a choice.

The shuttle router routes quantum-dot arrays with free sites and
devices without shuttling, with move costs that include negative ones
and 50: those cycle into forced routes, whose SWAPs stay SWAPs even
where they touch a free site.

Every call to the new loop runs under a generous deadline, so a loop
that stops making progress fails instead of hanging.  With the native
kernel available, the examples it accepts must have taken it.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.core.gates import Gate
from repro.devices import (
    Device, grid_device, heavy_hex_device, ibm_qx5, linear_device,
    quantum_dot_device, surface17,
)
from repro.mapping.placement import Placement
from repro.mapping.routing import route_latency, route_reliability, route_sabre, route_shuttle
from repro.mapping.routing._astar_native import warm_kernel
from repro.mapping.routing.base import RoutingError
from repro.obs import Tracer, use_tracer
from repro.resilience import Deadline, use_deadline
from repro.sim.noise import NoiseModel
from repro.workloads import random_circuit

from . import routing_reference as reference

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Seconds the new loop may take on one example (it needs milliseconds).
_BUDGET_S = 20.0

#: Whether the family kernel routes the examples it accepts.
_KERNEL = warm_kernel()

_DEVICES = {
    "qx5": ibm_qx5(),
    "surface17": surface17(),
    "grid44": grid_device(4, 4),
    "linear9": linear_device(9),
    "heavyhex119": heavy_hex_device(7, 14),
}
#: Devices small enough for the forced route: each one takes
#: ``4 n^2 + 16`` cycling decisions first.
_SMALL = ["qx5", "surface17", "grid44", "linear9"]
#: Quantum-dot arrays, which shuttle into free sites.
_DOTS = {
    "dots23": quantum_dot_device(2, 3),
    "dots34": quantum_dot_device(3, 4),
    "dots44": quantum_dot_device(4, 4),
}
_ONE_QUBIT = ["h", "x", "t", "rz", "measure", "prep_z"]
_TWO_QUBIT = ["cnot", "cnot", "cz", "swap", "cp"]


@st.composite
def circuits(draw, num_qubits: int, max_gates: int) -> Circuit:
    """Mostly two-qubit gates, with single-qubit gates, measurements,
    barriers, conditioned gates and, rarely, a three-qubit gate."""
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
        elif kind < 88:
            name = draw(st.sampled_from(_ONE_QUBIT))
            params = (-0.5,) if name == "rz" else ()
            if name in ("measure", "prep_z"):
                condition = None
            circuit.append(Gate(name, (qubits[0],), params, condition))
        elif kind < 98:
            width = draw(st.integers(0, num_qubits))
            circuit.append(Gate("barrier", tuple(sorted(qubits[:width]))))
        elif num_qubits >= 3:
            circuit.append(Gate("toffoli", tuple(qubits[:3])))
    return circuit


def dense_circuits(num_qubits: int, max_gates: int) -> st.SearchStrategy[Circuit]:
    """Workload circuits, 80% CNOTs: the routers stall and cycle more."""
    return st.builds(
        lambda gates, seed: random_circuit(
            num_qubits, gates, seed=seed, two_qubit_fraction=0.8
        ),
        st.integers(1, max_gates),
        st.integers(0, 10**6),
    )


@st.composite
def problems(draw, devices=tuple(_DEVICES), max_gates: int = 40):
    """A device, a circuit on at most 12 of its qubits, and a placement
    (``None`` for the trivial one)."""
    name = draw(st.sampled_from(devices))
    device = _DEVICES[name] if name in _DEVICES else _DOTS[name]
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
    return name, device, circuit, placement


def _outcome(route, circuit, device, placement, deadline=None, counters=None,
             **options) -> tuple:
    tracer = Tracer()
    try:
        with use_tracer(tracer), use_deadline(deadline):
            result = route(circuit, device, placement, **options)
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        return ("raised", type(exc), str(exc))
    finally:
        if counters is not None:
            counters.update(tracer.counters())
    return (
        "routed",
        [repr(gate) for gate in result.circuit.gates],
        result.circuit.num_qubits,
        result.circuit.name,
        (result.initial.prog_to_phys(), result.initial.num_program),
        (result.final.prog_to_phys(), result.final.num_program),
        result.added_swaps,
        result.router,
        result.metadata,
        {k: v for k, v in tracer.counters().items() if k.startswith("sabre.")},
    )


def assert_routes_as_before(route, old_route, problem, **options) -> None:
    _, device, circuit, placement = problem
    expected = _outcome(old_route, circuit, device, placement, **options)
    counters: dict = {}
    actual = _outcome(
        route, circuit, device, placement, Deadline.after(_BUDGET_S), counters,
        **options,
    )
    assert actual == expected
    # With the kernel available, every input it accepts (no gate wider
    # than two qubits, no Python swap penalty) is routed by it, unless the
    # stall valve hands the circuit back to the Python loop.
    eligible = (
        _KERNEL
        and "swap_penalty" not in options
        and all(len(gate.qubits) <= 2 for gate in circuit.gates)
        and actual[0] == "routed"
        and not any(key.endswith(".forced_routes") for key in counters)
    )
    if eligible:
        assert counters.get("family.native_calls") == 1, counters


def _noise(device, kind: str, seed: int = 0) -> NoiseModel:
    """``uniform`` (every distance a multiple of one weight: ties),
    ``random`` edge errors (asymmetric weighted distances), or edge
    errors drawn from three ``levels`` (asymmetric and full of ties)."""
    if kind == "uniform":
        return NoiseModel()
    if kind == "random":
        return NoiseModel.with_random_edge_errors(device, seed=seed)
    rng = random.Random(seed)
    return NoiseModel(edge_error={
        edge: rng.choice((0.01, 0.02, 0.05)) for edge in device.undirected_edge_list
    })


def _chain(qubits):
    """CNOTs between far program qubits."""
    circuit = Circuit(qubits)
    for a in range(qubits // 2):
        circuit.cnot(a, qubits - 1 - a)
    circuit.cnot(0, 1)
    return circuit


@given(
    problems(),
    st.sampled_from([0, 1, 20]),
    st.sampled_from([0.5, 0.0, 0.3, 1.5]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, "skewed", "uniform", "random", "levels"]),
)
@settings(**_SETTINGS)
@example(
    ("linear9", _DEVICES["linear9"], _chain(9), None),
    20, 0.5, True, False, "random",
)
@example(
    ("qx5", _DEVICES["qx5"], _chain(12), None), 20, 0.5, True, False, "skewed",
)
def test_sabre_routes_as_before(
    problem, lookahead, weight, use_decay, commutation, distances
):
    options = dict(lookahead=lookahead, extended_weight=weight,
                   use_decay=use_decay, commutation=commutation)
    device = problem[1]
    if distances == "skewed":
        # A directed cost: each pair costs more one way round.
        hops = device.distance_matrix
        options["distance_matrix"] = [
            [d + (0.375 if a > b else 0.0) for b, d in enumerate(row)]
            for a, row in enumerate(hops)
        ]
    elif distances is not None:
        noise = _noise(device, distances)
        options["distance_matrix"] = noise.weighted_distance_matrix(device)
    assert_routes_as_before(route_sabre, reference.route_sabre, problem, **options)


@given(
    problems(tuple(_SMALL), max_gates=16),
    st.sampled_from([0, 1, 20]),
    st.booleans(),
    st.integers(0, 99),
)
@settings(**_SETTINGS)
@example(("linear9", _DEVICES["linear9"], _chain(9), None), 20, True, 4)
@example(
    ("qx5", _DEVICES["qx5"],
     random_circuit(6, 16, seed=0, two_qubit_fraction=0.8), None),
    20, True, 5,
)
def test_sabre_forced_routes_as_before(problem, lookahead, use_decay, edge):
    # Favouring one edge makes the router swap it back and forth until
    # the stall valve force-routes the first blocked gate; the decay
    # bump then lands on that gate's operands.
    edges = problem[1].undirected_edge_list
    favourite = edges[edge % len(edges)]

    def penalty(pa, pb):
        return -1000.0 if (pa, pb) == favourite else 0.0

    assert_routes_as_before(
        route_sabre, reference.route_sabre, problem,
        lookahead=lookahead, use_decay=use_decay, swap_penalty=penalty,
    )


@given(
    problems(),
    st.sampled_from([0, 1, 20]),
    st.sampled_from([0.5, 0.0, 1.5]),
    st.sampled_from([0.1, 0, 1, -0.5]),
    st.booleans(),
)
@settings(**_SETTINGS)
def test_latency_routes_as_before(problem, lookahead, weight, latency_weight, commutation):
    # A large or negative weight can cycle into the stall valve, and each
    # forced route takes 4 n^2 + 16 decisions: keep those on linear 9.
    assume(latency_weight in (0, 0.1) or problem[0] == "linear9")
    assert_routes_as_before(
        route_latency, reference.route_latency, problem,
        lookahead=lookahead, extended_weight=weight,
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
    ("heavyhex119", _DEVICES["heavyhex119"],
     _chain(12), None),
    20, 0.5, "random", 0,
)
def test_reliability_routes_as_before(problem, lookahead, weight, noise, seed):
    options = dict(lookahead=lookahead, extended_weight=weight)
    if noise is not None:
        options["noise"] = _noise(problem[1], noise, seed)
    assert_routes_as_before(
        route_reliability, reference.route_reliability, problem, **options
    )


def test_weighted_distances_are_asymmetric():
    # The lookup order rule matters only because these differ.
    for name in ("qx5", "heavyhex119"):
        device = _DEVICES[name]
        dist = _noise(device, "random").weighted_distance_matrix(device)
        assert any(
            dist[a][b] != dist[b][a]
            for a in range(device.num_qubits) for b in range(a)
        ), name


#: Shuttle's own wording for a blocked gate with no coupling edge, where
#: the family loop says "swaps".
_NO_MOVES = "no candidate moves; is the device connected?"


@given(
    problems((*_DOTS, "grid44", "linear9", "qx5"), max_gates=30),
    st.sampled_from([0, 1, 20]),
    st.sampled_from([0.5, 0.0, 1.5]),
    st.sampled_from([1.0, 0.5, -1.0, 50]),
    st.sampled_from([3.0, 1, -2.0, 50]),
)
@settings(**_SETTINGS)
@example(
    # Shuttling into a free site and back beats any SWAP until the stall
    # valve fires; the forced route's SWAPs then cross free sites.
    ("dots23", _DOTS["dots23"], Circuit(3).cnot(2, 0), None), 0, 0.5, 1.0, 50,
)
@example(
    ("dots44", _DOTS["dots44"],
     random_circuit(7, 30, seed=4, two_qubit_fraction=0.8), None),
    1, 1.5, 50, -2.0,
)
def test_shuttle_routes_as_before(problem, lookahead, weight, shuttle_cost, swap_cost):
    _, device, circuit, placement = problem
    options = dict(lookahead=lookahead, extended_weight=weight,
                   shuttle_cost=shuttle_cost, swap_cost=swap_cost)
    expected = _outcome(reference.route_shuttle, circuit, device, placement, **options)
    counters: dict = {}
    actual = _outcome(
        route_shuttle, circuit, device, placement, Deadline.after(_BUDGET_S),
        counters, **options,
    )
    # Every device here is connected, so the one wording difference
    # (test_shuttle_no_candidate_wording) cannot show.
    assert expected[:3] != ("raised", RoutingError, _NO_MOVES)
    assert actual == expected
    if actual[0] == "routed":
        # Shuttle has no kernel mirror: the Python loop routes it.
        assert counters.get("family.python_calls") == 1, counters


def test_shuttle_no_candidate_wording():
    # A deliberate difference: a blocked gate whose qubits have no
    # coupling edge now raises the family loop's "no candidate swaps".
    device = Device("split", 4, [(0, 1)], ["h", "cnot"], features=["shuttling"])
    circuit = Circuit(4).cnot(2, 3)
    assert _outcome(reference.route_shuttle, circuit, device, None) == (
        "raised", RoutingError, _NO_MOVES,
    )
    assert _outcome(route_shuttle, circuit, device, None) == (
        "raised", RoutingError, "no candidate swaps; is the device connected?",
    )
