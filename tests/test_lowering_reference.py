"""The lowering passes against copies of the implementations they replaced.

:func:`cancel_inverse_pairs` and :func:`merge_rotations` pair each gate
with the gate that is last on all its wires, in one forward sweep,
instead of rescanning forward for the next gate on these wires;
:func:`decompose_circuit` lowers each distinct gate once instead of
re-running :func:`decompose_gate` over the whole circuit until nothing
changes; and single-qubit fusion and the Euler synthesis multiply
Python complex numbers instead of numpy matrices.  The
reference functions below are the earlier implementations, numpy
included.  On random unconditioned circuits:

* the peephole passes and the decomposition must agree with them byte
  for byte, compared by the ``repr`` of every gate, so a ``-0.0`` that
  turns into ``0.0`` counts as a difference;
* where arithmetic moved from numpy to scalars (fusion, and the Euler
  fallback the ion device reaches), the gate sequence must be the same
  and the angles equal up to rounding, as
  :func:`tests.lowering_compare.assert_same_up_to_rounding` defines it
  (within 1e-9 modulo 2*pi wherever the Euler angles are well
  conditioned);
* a device without a universal basis must raise the same ``ValueError``.
"""

from __future__ import annotations

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.core import gates as G
from repro.core.gates import Gate
from repro.decompose import decomposer, decompose_circuit, u_angles, zyz_angles
from repro.devices import ibm_qx5, surface17
from repro.devices.device import Device
from repro.devices.ions import ion_trap_device
from repro.optimize import (
    cancel_inverse_pairs,
    fuse_single_qubit_runs,
    merge_rotations,
    optimize_circuit,
    remove_identities,
)

from .lowering_compare import ILL_CONDITIONED_THETA, assert_same_up_to_rounding

_SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_NUM_QUBITS = 3
_ANGLE_EPS = 1e-9
_ROTATIONS = {"rx", "ry", "rz", "cp", "crz"}


# ---------------------------------------------------------------------------
# The replaced implementations
# ---------------------------------------------------------------------------

def _is_identity_angle(angle):
    return abs(math.remainder(angle, 4.0 * math.pi)) < _ANGLE_EPS


def ref_cancel_inverse_pairs(circuit):
    gates = list(circuit.gates)
    removed = [False] * len(gates)
    for index, gate in enumerate(gates):
        if removed[index] or not gate.is_unitary or gate.is_barrier:
            continue
        spec = gate.spec
        if spec.num_params and not spec.hermitian_params:
            continue
        partner = _ref_next_unremoved(circuit, gates, removed, index)
        if partner is None:
            continue
        other = gates[partner]
        if not other.is_unitary:
            continue
        if not _ref_are_inverses(gate, other):
            continue
        removed[index] = removed[partner] = True
    out = Circuit(circuit.num_qubits, name=circuit.name)
    for index, gate in enumerate(gates):
        if not removed[index]:
            out.append(gate)
    return out


def _ref_next_unremoved(circuit, gates, removed, start):
    wanted = set(gates[start].qubits)
    for index in range(start + 1, len(gates)):
        if removed[index]:
            continue
        gate = gates[index]
        touched = set(gate.qubits) if gate.qubits else set(range(circuit.num_qubits))
        if not touched & wanted:
            continue
        if touched == wanted:
            return index
        return None
    return None


def _ref_are_inverses(a, b):
    if set(a.qubits) != set(b.qubits):
        return False
    try:
        inverse = a.inverse()
    except ValueError:
        return False
    if inverse == b:
        return True
    return a.spec.symmetric and inverse == b.reversed_qubits()


def ref_merge_rotations(circuit):
    out = Circuit(circuit.num_qubits, name=circuit.name)
    gates = list(circuit.gates)
    index = 0
    while index < len(gates):
        gate = gates[index]
        if gate.name in _ROTATIONS:
            angle = gate.params[0]
            while True:
                nxt = _ref_next_on_qubits(circuit, gates, index, gate.qubits)
                if nxt is None:
                    break
                other = gates[nxt]
                same_operands = other.qubits == gate.qubits or (
                    other.spec.symmetric and set(other.qubits) == set(gate.qubits)
                )
                if other.name == gate.name and same_operands:
                    angle += other.params[0]
                    gates.pop(nxt)
                    continue
                break
            if not _is_identity_angle(angle):
                out.append(Gate(gate.name, gate.qubits, (angle,)))
            index += 1
            continue
        out.append(gate)
        index += 1
    return out


def _ref_next_on_qubits(circuit, gates, start, qubits):
    wanted = set(qubits)
    for index in range(start + 1, len(gates)):
        gate = gates[index]
        touched = set(gate.qubits) if gate.qubits else set(range(circuit.num_qubits))
        if not touched & wanted:
            continue
        if touched == wanted:
            return index
        return None
    return None


def ref_remove_identities(circuit):
    out = Circuit(circuit.num_qubits, name=circuit.name)
    for gate in circuit.gates:
        if gate.name == "i":
            continue
        if gate.name in _ROTATIONS and _is_identity_angle(gate.params[0]):
            continue
        out.append(gate)
    return out


def ref_decompose_circuit(circuit, device):
    current = circuit
    for _ in range(16):
        out = Circuit(current.num_qubits, name=current.name)
        changed = False
        for gate in current.gates:
            replacement = decomposer.decompose_gate(gate, device)
            if len(replacement) != 1 or replacement[0] != gate:
                changed = True
            out.extend(replacement)
        if not changed:
            return out
        current = out
    raise ValueError(
        f"decomposition did not converge on device {device.name!r}; "
        f"native set {sorted(device.native_gates)} may not be universal"
    )


def _np_rz(angle):
    phase = cmath.exp(1j * angle / 2.0)
    return np.array([[1.0 / phase, 0.0], [0.0, phase]], dtype=complex)


def _np_ry(angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _np_wrap(angle):
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def ref_zyz_angles(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    if not np.allclose(matrix @ matrix.conj().T, np.eye(2), atol=1e-8):
        raise ValueError("matrix is not unitary")
    det = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    alpha = cmath.phase(det) / 2.0
    su2 = matrix * cmath.exp(-1j * alpha)
    cos_half = min(1.0, max(0.0, abs(su2[0, 0])))
    theta = 2.0 * math.acos(cos_half)
    if abs(su2[0, 0]) > 1e-10 and abs(su2[1, 0]) > 1e-10:
        plus = 2.0 * cmath.phase(su2[1, 1])
        minus = 2.0 * cmath.phase(su2[1, 0])
        phi, lam = (plus + minus) / 2.0, (plus - minus) / 2.0
    elif abs(su2[0, 0]) > 1e-10:
        phi, lam = 0.0, 2.0 * cmath.phase(su2[1, 1])
    else:
        lam, phi = 0.0, 2.0 * cmath.phase(su2[1, 0])
    phi, lam = _np_wrap(phi), _np_wrap(lam)
    reconstruction = cmath.exp(1j * alpha) * (_np_rz(phi) @ _np_ry(theta) @ _np_rz(lam))
    pivot = int(np.argmax(np.abs(matrix)))
    flat, rebuilt = matrix.reshape(-1), reconstruction.reshape(-1)
    if abs(flat[pivot]) > 1e-10 and (rebuilt[pivot] / flat[pivot]).real < 0:
        alpha += math.pi
    return theta, phi, lam, alpha


def ref_u_angles(matrix):
    theta, phi, lam, _ = ref_zyz_angles(matrix)
    return theta, phi, lam


def _ref_matrix(gate):
    """The numpy matrix as it was built: ``u`` was a BLAS product."""
    if gate.name == "u":
        theta, phi, lam = gate.params
        return _np_rz(phi) @ _np_ry(theta) @ _np_rz(lam)
    return gate.matrix()


def ref_fuse_single_qubit_runs(circuit, emit="u"):
    out = Circuit(circuit.num_qubits, name=circuit.name)
    pending = {}

    def flush(qubit):
        matrix = pending.pop(qubit, None)
        if matrix is None:
            return
        if np.allclose(matrix @ matrix.conj().T, np.eye(2)) and _ref_is_phase_identity(matrix):
            return
        theta, phi, lam = ref_u_angles(matrix)
        if emit == "u":
            out.append(G.u(theta, phi, lam, qubit))
        else:
            if abs(lam) > _ANGLE_EPS:
                out.append(G.rz(lam, qubit))
            if abs(theta) > _ANGLE_EPS:
                out.append(G.ry(theta, qubit))
            if abs(phi) > _ANGLE_EPS:
                out.append(G.rz(phi, qubit))

    for gate in circuit.gates:
        if gate.is_unitary and len(gate.qubits) == 1:
            q = gate.qubits[0]
            pending[q] = _ref_matrix(gate) @ pending.get(q, np.eye(2, dtype=complex))
            continue
        touched = gate.qubits if gate.qubits else tuple(range(circuit.num_qubits))
        for q in touched:
            flush(q)
        out.append(gate)
    for q in sorted(pending):
        flush(q)
    return out


def _ref_is_phase_identity(matrix):
    pivot = matrix[0, 0]
    if abs(abs(pivot) - 1.0) > 1e-9:
        return False
    return np.allclose(matrix, pivot * np.eye(2), atol=1e-9)


def ref_optimize_circuit(circuit, *, fuse=False, max_passes=20):
    current = ref_remove_identities(circuit)
    for _ in range(max_passes):
        before = len(current.gates)
        current = ref_cancel_inverse_pairs(current)
        current = ref_merge_rotations(current)
        current = ref_remove_identities(current)
        if fuse:
            current = ref_fuse_single_qubit_runs(current)
        if len(current.gates) >= before:
            break
    return current


# ---------------------------------------------------------------------------
# Random circuits
# ---------------------------------------------------------------------------

_FIXED_1Q = ("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg",
             "x90", "xm90", "y90", "ym90")
_TWO_PI = 2.0 * math.pi
_SPECIAL = (0.0, -0.0, _TWO_PI, -_TWO_PI, 2.0 * _TWO_PI, math.pi, -math.pi / 2,
            math.pi / 4, 1e-12)
angles = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(min_value=-13.0, max_value=13.0, allow_nan=False),
)
qubits = st.integers(min_value=0, max_value=_NUM_QUBITS - 1)
pairs = st.permutations(range(_NUM_QUBITS)).map(lambda p: (p[0], p[1]))


@st.composite
def gates(draw):
    kind = draw(st.sampled_from(
        ("fixed", "rotation", "u", "two", "two_param", "measure", "prep",
         "barrier")
    ))
    if kind == "fixed":
        return Gate(draw(st.sampled_from(_FIXED_1Q)), (draw(qubits),))
    if kind == "rotation":
        name = draw(st.sampled_from(("rx", "ry", "rz")))
        return Gate(name, (draw(qubits),), (draw(angles),))
    if kind == "u":
        return Gate("u", (draw(qubits),), (draw(angles), draw(angles), draw(angles)))
    if kind == "two":
        return Gate(draw(st.sampled_from(("cnot", "cz", "swap"))), draw(pairs))
    if kind == "two_param":
        name = draw(st.sampled_from(("cp", "crz")))
        return Gate(name, draw(pairs), (draw(angles),))
    if kind == "measure":
        return Gate("measure", (draw(qubits),))
    if kind == "prep":
        return Gate("prep_z", (draw(qubits),))
    operands = draw(st.lists(qubits, max_size=_NUM_QUBITS, unique=True))
    return Gate("barrier", tuple(sorted(operands)))


circuits = st.lists(gates(), max_size=40).map(
    lambda gs: Circuit(_NUM_QUBITS, gs, name="random")
)


def _reprs(circuit):
    return [repr(g) for g in circuit.gates]


# ---------------------------------------------------------------------------
# Peephole passes
# ---------------------------------------------------------------------------

@given(circuits)
@settings(**_SETTINGS)
def test_cancel_inverse_pairs_matches_rescan(circuit):
    assert _reprs(cancel_inverse_pairs(circuit)) == _reprs(ref_cancel_inverse_pairs(circuit))


@given(circuits)
@settings(**_SETTINGS)
@example(Circuit(1, [G.rz(0.5, 0), G.rz(-0.0, 0), G.rz(0.25, 0)]))
@example(Circuit(2, [G.cp(0.5, 0, 1), G.cp(0.5, 1, 0), G.crz(0.1, 1, 0)]))
def test_merge_rotations_matches_rescan(circuit):
    assert _reprs(merge_rotations(circuit)) == _reprs(ref_merge_rotations(circuit))


@given(circuits)
@settings(**_SETTINGS)
def test_remove_identities_matches(circuit):
    assert _reprs(remove_identities(circuit)) == _reprs(ref_remove_identities(circuit))


@given(circuits)
@settings(**_SETTINGS)
def test_optimize_without_fusion_matches(circuit):
    assert _reprs(optimize_circuit(circuit)) == _reprs(ref_optimize_circuit(circuit))


@given(circuits)
@settings(**_SETTINGS)
@example(Circuit(1, [G.u(0.0, 1.0, 1.875, 0)]))
def test_fusion_matches_numpy_fusion(circuit):
    assert_same_up_to_rounding(
        fuse_single_qubit_runs(circuit), ref_fuse_single_qubit_runs(circuit)
    )


@given(circuits)
@settings(**_SETTINGS)
def test_optimize_with_fusion_matches_numpy_fusion(circuit):
    assert_same_up_to_rounding(
        optimize_circuit(circuit, fuse=True),
        ref_optimize_circuit(circuit, fuse=True),
    )


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

_DEVICES = {
    "ibm_qx5": ibm_qx5(),
    "surface17": surface17(),
    "ions": ion_trap_device(_NUM_QUBITS),
}
_BROKEN = Device("broken", _NUM_QUBITS, [(0, 1), (1, 2)], ["x", "cz"], two_qubit_gate="cz")


def _outcome(function, circuit, device):
    """The output's gate reprs, or the error message."""
    try:
        return _reprs(function(circuit, device))
    except ValueError as error:
        return f"ValueError: {error}"


@pytest.mark.parametrize("device", sorted(_DEVICES))
@given(circuit=circuits)
@settings(**_SETTINGS)
def test_decompose_matches_repeated_rewriting(device, circuit):
    device = _DEVICES[device]
    got = decompose_circuit(circuit, device)
    assert _reprs(got) == _reprs(ref_decompose_circuit(circuit, device))
    if device.name.startswith("iontrap"):
        # The ion device reaches the Euler fallback: against the numpy
        # synthesis the angles may differ in the last bits.
        with mock.patch.object(decomposer, "u_angles", ref_u_angles):
            numpy_lowered = ref_decompose_circuit(circuit, device)
        assert_same_up_to_rounding(got, numpy_lowered)


@given(circuits)
@settings(**_SETTINGS)
def test_non_universal_device_raises_the_same_error(circuit):
    assert _outcome(decompose_circuit, circuit, _BROKEN) == _outcome(
        ref_decompose_circuit, circuit, _BROKEN
    )


@pytest.mark.parametrize("device", sorted(_DEVICES))
def test_signed_zero_angles_lower_apart(device):
    """``rx(0.0)`` and ``rx(-0.0)`` are equal gates with different output."""
    device = _DEVICES[device]
    circuit = Circuit(2, [G.rx(0.0, 0), G.rx(-0.0, 0), G.rz(-0.0, 1), G.rz(0.0, 1)])
    got = decompose_circuit(circuit, device)
    assert _reprs(got) == _reprs(ref_decompose_circuit(circuit, device))
    assert "-0.0" in " ".join(_reprs(got))


def test_non_convergence_raises_at_the_same_depth():
    """A rewrite chain one level too deep fails both ways, one level less passes."""
    device = ibm_qx5()
    # Rewrite chains h -> rx(1) -> rx(2) -> ... -> rx(length).
    for length, converges in ((15, True), (16, False)):
        def step(gate, dev, length=length):
            if gate.name == "h":
                return [G.rx(1.0, gate.qubits[0])]
            if gate.name == "rx" and gate.params[0] < length:
                return [G.rx(gate.params[0] + 1.0, gate.qubits[0])]
            return [gate]

        circuit = Circuit(1, [G.h(0)])
        with mock.patch.object(decomposer, "decompose_gate", step):
            got = _outcome(decompose_circuit, circuit, device)
            want = _outcome(ref_decompose_circuit, circuit, device)
        assert got == want
        assert isinstance(got, str) != converges


# ---------------------------------------------------------------------------
# Euler synthesis
# ---------------------------------------------------------------------------

def _zyz_matrix(theta, phi, lam, alpha):
    return np.exp(1j * alpha) * (_np_rz(phi) @ _np_ry(theta) @ _np_rz(lam))


@given(angles, angles, angles, angles)
@settings(**_SETTINGS)
@example(0.0, 0.0, 5.099609375, 3.0)
@example(12.5, 12.5, 0.0, 3.375)
def test_scalar_zyz_matches_numpy_zyz(theta, phi, lam, alpha):
    matrix = _zyz_matrix(theta, phi, lam, alpha)
    got, want = zyz_angles(matrix), ref_zyz_angles(matrix)
    # alpha carries the global phase, so it may differ by pi when phi or
    # lam sits on the wrap boundary at +-pi and rounds to the other side.
    assert np.allclose(_zyz_matrix(*got), _zyz_matrix(*want), atol=1e-7)
    if min(got[0], want[0]) >= ILL_CONDITIONED_THETA:
        for x, y in zip(got[:3], want[:3]):
            assert abs(math.remainder(x - y, 2.0 * math.pi)) <= 1e-9
    assert u_angles(matrix) == got[:3]
