"""The post-routing back end against copies of the passes it replaced.

:func:`repro.decompose.decompose_circuit` computes each gate object's
memo key once; :func:`repro.mapping.direction.fix_directions` decides
once per distinct gate and shares the five flip gates between its
occurrences; :func:`repro.mapping.routing.base.check_connectivity`
checks each distinct gate once; the ASAP and ALAP schedulers look each
gate name's duration up once; and
:func:`repro.mapping.control.schedule_with_constraints` reads per-gate
tables and jumps from one gate end to the next instead of stepping every
cycle.  :mod:`tests.backend_reference` holds the earlier passes.

Each example runs the back end's chain (decompose, direction fix,
decompose again, connectivity check, the three schedulers) and gives
every pass the same input on both sides: the current chain's output of
the pass before.  Both sides must return the same gates, compared by
``repr`` (so ``0.0`` against ``-0.0`` counts), the same flip count, the
same scheduled items ``(repr(gate), start, duration)`` in order, the
same metadata and latency, or raise the same exception type with the
same message.  The connectivity check, the direction fix and the
schedulers also run on the raw input, which holds three-qubit gates,
gates against the edge and gates on unconnected pairs.

One deliberate difference: the earlier direction fix dropped the
condition of a reversed CNOT from all five of its gates.  Its output is
compared with that condition put back.

Circuits hold classical conditions, measurements, resets, barriers with
and without operands, repeated gates (the same object and equal copies),
``0.0`` and ``-0.0`` angles and three-qubit gates.  Devices: IBM QX4 and
QX5 (directed), Surface-7 and Surface-17 with each control-constraint
family switched on and off, a trapped-ion module (serial entangler), a
linear chain and an all-to-all device; both scheduler priorities.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.core.gates import GATE_SPECS, Gate
from repro.decompose import decompose_circuit
from repro.devices import (
    all_to_all_device, ibm_qx4, ibm_qx5, linear_device, surface7, surface17,
)
from repro.devices.ions import ion_trap_device
from repro.mapping.control import schedule_with_constraints
from repro.mapping.direction import fix_directions
from repro.mapping.routing.base import check_connectivity
from repro.mapping.scheduler import alap_schedule, asap_schedule

from . import backend_reference as reference

_SETTINGS = dict(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_DEVICES = {
    "qx4": ibm_qx4(),
    "qx5": ibm_qx5(),
    "surface7": surface7(),
    "surface17": surface17(),
    "iontrap5": ion_trap_device(5),
    "linear6": linear_device(6),
    "all5": all_to_all_device(5),
}
_ONE_QUBIT = ["h", "x", "t", "s", "rz", "rx", "ry", "u", "x90", "measure", "prep_z"]
_TWO_QUBIT = ["cnot", "cnot", "cnot", "cz", "swap", "cp", "crz"]
_ANGLES = [0.0, -0.0, 0.5, -1.25]


@st.composite
def circuits(draw, device) -> Circuit:
    """Gates on a connected region of at most 7 of the device's qubits:
    two-qubit gates mostly on its edges in either orientation, sometimes
    on any pair.  The circuit spans the whole device, so that the qubits
    a CZ parks are lines of it."""
    size = draw(st.integers(1, min(7, device.num_qubits)))
    region = [draw(st.integers(0, device.num_qubits - 1))]
    for q in region:
        region += [n for n in device.neighbours[q] if n not in region]
    region = region[:size]
    edges = sorted((a, b) for a, b in device.edges if a in region and b in region)
    circuit = Circuit(device.num_qubits)
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 99))
        qubits = draw(st.permutations(region))
        condition = None
        if draw(st.integers(0, 5)) == 0:
            condition = (draw(st.sampled_from(region)), draw(st.integers(0, 1)))
        if kind < 50 and size >= 2:
            name = draw(st.sampled_from(_TWO_QUBIT))
            pair = tuple(qubits[:2])
            if edges and draw(st.integers(0, 4)):
                pair = draw(st.sampled_from(edges))
                if draw(st.booleans()):
                    pair = pair[::-1]
            params = tuple(
                draw(st.sampled_from(_ANGLES))
                for _ in range(GATE_SPECS[name].num_params)
            )
            circuit.append(Gate(name, pair, params, condition))
        elif kind < 85:
            name = draw(st.sampled_from(_ONE_QUBIT))
            params = tuple(
                draw(st.sampled_from(_ANGLES))
                for _ in range(GATE_SPECS[name].num_params)
            )
            if name in ("measure", "prep_z"):
                condition = None
            circuit.append(Gate(name, (qubits[0],), params, condition))
        elif kind < 95:
            width = draw(st.integers(0, size))
            circuit.append(Gate("barrier", tuple(sorted(qubits[:width]))))
        elif size >= 3:
            name = draw(st.sampled_from(["toffoli", "fredkin"]))
            circuit.append(Gate(name, tuple(qubits[:3]), (), condition))
        if circuit.gates and draw(st.integers(0, 2)) == 0:
            circuit.append(draw(repeats(circuit.gates[-1], region)))
    return circuit


@st.composite
def repeats(draw, gate: Gate, region: list[int]) -> Gate:
    """``gate`` again: the same object, an equal copy, the copy with its
    zero angles negated, or the copy under another condition."""
    kind = draw(st.sampled_from(["same", "copy", "signed zero", "condition"]))
    if kind == "same":
        return gate
    params, condition = gate.params, gate.condition
    if kind == "signed zero":
        params = tuple(-p if p == 0 else p for p in params)
    if kind == "condition" and gate.is_unitary:
        condition = draw(st.sampled_from(
            [None] + [(q, value) for q in region for value in (0, 1)]
        ))
    return Gate(gate.name, gate.qubits, params, condition)


@st.composite
def problems(draw):
    name = draw(st.sampled_from(sorted(_DEVICES)))
    return name, _DEVICES[name], draw(circuits(_DEVICES[name]))


def _outcome(run, *args, **options) -> tuple:
    try:
        result = run(*args, **options)
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        return ("raised", type(exc), str(exc))
    if result is None:
        return ("passed",)
    flips = None
    if isinstance(result, tuple):
        result, flips = result
    if isinstance(result, Circuit):
        return (
            "circuit", [repr(gate) for gate in result.gates], result.num_qubits,
            result.name, flips,
        )
    return (
        "schedule",
        [(repr(item.gate), item.start, item.duration) for item in result.items],
        result.num_qubits, result.cycle_time_ns, result.metadata, result.latency,
    )


def _with_flip_conditions(circuit: Circuit, fixed: tuple) -> tuple[Circuit, int]:
    """The earlier direction fix, with each reversed CNOT's condition on
    its five gates."""
    gates, flips = fixed
    out, pos = Circuit(circuit.num_qubits, name=gates.name), 0
    for gate in circuit.gates:
        if gates[pos] is gate:
            out.append(gate)
            pos += 1
            continue
        for g in gates[pos:pos + 5]:
            out.append(Gate(g.name, g.qubits, g.params, gate.condition))
        pos += 5
    return out, flips


def _old_fix_directions(circuit: Circuit, device) -> tuple[Circuit, int]:
    return _with_flip_conditions(circuit, reference.fix_directions(circuit, device))


def _same(run, old_run, *args, **options) -> tuple:
    actual = _outcome(run, *args, **options)
    assert actual == _outcome(old_run, *args, **options), run.__name__
    return actual


def _schedules_agree(circuit: Circuit, device, flags: tuple) -> None:
    _same(asap_schedule, reference.asap_schedule, circuit, device)
    _same(alap_schedule, reference.alap_schedule, circuit, device)
    awg, feedlines, parking, serial, priority = flags
    _same(
        schedule_with_constraints, reference.schedule_with_constraints,
        circuit, device, awg=awg, feedlines=feedlines, parking=parking,
        serial_two_qubit=serial, priority=priority,
    )


def _flags():
    return st.tuples(
        st.booleans(), st.booleans(), st.booleans(),
        st.sampled_from([None, True, False]),
        st.sampled_from(["order", "critical"]),
    )


def _conditioned_flips() -> tuple:
    """One reversed CNOT under three conditions: a flip memo that left
    the condition out of its key would reuse the first block."""
    circuit = Circuit(5)
    for condition in [(2, 1), None, (2, 0), (2, 1)]:
        circuit.append(Gate("cnot", (0, 1), (), condition))
    return "qx4", _DEVICES["qx4"], circuit


def _signed_zeros() -> tuple:
    """``rz(0.0)`` and ``rz(-0.0)``: equal gates that lower to different
    ``u`` gates on QX5."""
    circuit = Circuit(16).rz(0.0, 0).rz(-0.0, 0).rz(-0.0, 1).rz(0.0, 1)
    return "qx5", _DEVICES["qx5"], circuit


def _overlapping_ends() -> tuple:
    """An X and a measurement in flight together on Surface-17: the Y
    after the X starts when the X ends, long before the measurement."""
    circuit = Circuit(17).x(1).measure(3).y(1).cz(3, 4).cz(1, 4)
    return "surface17", _DEVICES["surface17"], circuit


def _shared_controls() -> tuple:
    """Surface-17's control rules at work: identical X gates co-start in
    one AWG group and a Y there waits; two measurements co-start on one
    feedline and a preparation there waits; a CZ waits for the spectator
    it parks (qubit 5, measuring)."""
    circuit = Circuit(17).x(0).x(1).y(2).measure(3).measure(6).prep_z(9)
    circuit.measure(5).cz(1, 4)
    return "surface17", _DEVICES["surface17"], circuit


def _serial_entanglers() -> tuple:
    """Two CNOTs on disjoint pairs of a trapped-ion module: the second
    waits for the shared bus."""
    return "iontrap5", _DEVICES["iontrap5"], Circuit(5).cnot(0, 1).cnot(2, 3)


@given(problems(), _flags())
@settings(**_SETTINGS)
@example(_conditioned_flips(), (True, True, True, None, "order"))
@example(_signed_zeros(), (True, True, True, None, "order"))
@example(_overlapping_ends(), (True, True, True, None, "order"))
@example(_overlapping_ends(), (True, False, True, None, "critical"))
@example(_shared_controls(), (True, True, True, None, "order"))
@example(_serial_entanglers(), (True, True, True, None, "order"))
def test_back_end_matches_earlier_passes(problem, flags):
    _, device, circuit = problem
    # The raw input: unconnected pairs, gates against the edge, and gates
    # wider than two qubits.
    _same(check_connectivity, reference.check_connectivity, circuit, device)
    _same(fix_directions, _old_fix_directions, circuit, device)
    _schedules_agree(circuit, device, flags)

    stage = circuit
    for run, old_run in [
        (decompose_circuit, reference.decompose_circuit),
        (fix_directions, _old_fix_directions),
        (decompose_circuit, reference.decompose_circuit),
    ]:
        if _same(run, old_run, stage, device)[0] == "raised":
            return
        stage = run(stage, device)
        if isinstance(stage, tuple):
            stage = stage[0]
    _same(check_connectivity, reference.check_connectivity, stage, device)
    _schedules_agree(stage, device, flags)
