"""Quantum gate definitions and their unitary matrices.

This module is the vocabulary of the whole toolkit: every circuit,
decomposition rule, router, and scheduler speaks in terms of the
:class:`Gate` instances defined here.

A :class:`Gate` is an *instance* of a named operation applied to concrete
qubit indices with concrete parameters.  Static knowledge about each
operation (arity, parameter count, matrix, symmetry, ...) lives in the
:data:`GATE_SPECS` registry, keyed by the canonical lower-case gate name.

The gate set covers everything used by the paper (DATE 2020,
"Realizing Quantum Algorithms on Real Quantum Computing Devices"):

* the universal set of Section II — ``H``, ``X``, ``Y``, ``Z``, ``T``,
  ``CNOT``, ``CZ``, ``SWAP``;
* IBM's native set of Section IV — ``U(theta, phi, lam)`` defined as the
  Euler decomposition ``Rz(phi) Ry(theta) Rz(lam)`` plus ``CNOT``;
* Surface-17's native set of Section V — arbitrary ``Rx``/``Ry``
  rotations (with the convenient named 90/180-degree instances
  ``x90``, ``xm90``, ``y90``, ``ym90``, ``x``, ``y``) plus ``CZ``;
* the larger gates whose decomposition Section IV discusses —
  ``toffoli`` (CCX) and ``fredkin`` (CSWAP);
* the non-unitary pseudo-operations ``measure``, ``prep_z`` and
  ``barrier`` needed to express full programs and schedules.

Angles are always in radians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Gate",
    "GateSpec",
    "GATE_SPECS",
    "GATE_ALIASES",
    "canonical_name",
    "gate_matrix",
    "is_unitary_gate",
    "barrier",
    "cnot",
    "cp",
    "crz",
    "cz",
    "fredkin",
    "h",
    "i",
    "measure",
    "prep_z",
    "product_2x2",
    "rx",
    "ry",
    "rz",
    "s",
    "sdg",
    "swap",
    "t",
    "tdg",
    "toffoli",
    "u",
    "x",
    "x90",
    "xm90",
    "y",
    "y90",
    "ym90",
    "z",
]

_SQRT2_INV = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Single-qubit unitaries as scalars
# ---------------------------------------------------------------------------
#
# A 2x2 unitary is four Python ``complex`` values ``(u00, u01, u10, u11)``
# in row-major order.  Each single-qubit gate defines its entries once,
# below; its numpy matrix (:meth:`Gate.matrix`, for the simulators) is
# built from the same entries, so scalar consumers such as single-qubit
# fusion and the Euler synthesis see exactly the simulators' values.

_ONE = complex(1)
_ZERO = complex(0)


def product_2x2(left: tuple, right: tuple) -> tuple[complex, complex, complex, complex]:
    """The entries of ``left @ right`` for two 2x2 entry tuples."""
    a, b, c, d = left
    e, f, g, h = right
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _u2_i(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (_ONE, _ZERO, _ZERO, _ONE)


def _u2_x(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (_ZERO, _ONE, _ONE, _ZERO)


def _u2_y(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (_ZERO, -1j, 1j, _ZERO)


def _u2_z(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (_ONE, _ZERO, _ZERO, complex(-1))


def _u2_h(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (
        complex(_SQRT2_INV), complex(_SQRT2_INV),
        complex(_SQRT2_INV), complex(-_SQRT2_INV),
    )


def _u2_s(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (_ONE, _ZERO, _ZERO, 1j)


def _u2_sdg(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (_ONE, _ZERO, _ZERO, -1j)


def _u2_t(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (_ONE, _ZERO, _ZERO, cmath.exp(1j * math.pi / 4))


def _u2_tdg(_: tuple[float, ...]) -> tuple[complex, ...]:
    return (_ONE, _ZERO, _ZERO, cmath.exp(-1j * math.pi / 4))


def _u2_rx(params: tuple[float, ...]) -> tuple[complex, ...]:
    (theta,) = params
    c, si = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (complex(c), -1j * si, -1j * si, complex(c))


def _u2_ry(params: tuple[float, ...]) -> tuple[complex, ...]:
    (theta,) = params
    c, si = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return (complex(c), complex(-si), complex(si), complex(c))


def _u2_rz(params: tuple[float, ...]) -> tuple[complex, ...]:
    (theta,) = params
    phase = cmath.exp(1j * theta / 2.0)
    return (1.0 / phase, _ZERO, _ZERO, phase)


def _u2_u(params: tuple[float, ...]) -> tuple[complex, ...]:
    # U(theta, phi, lam) = Rz(phi) @ Ry(theta) @ Rz(lam), the Euler
    # decomposition IBM exposes on the QX devices (paper, Section IV).
    theta, phi, lam = params
    return product_2x2(
        product_2x2(_u2_rz((phi,)), _u2_ry((theta,))), _u2_rz((lam,))
    )


def _u2_x90(_: tuple[float, ...]) -> tuple[complex, ...]:
    return _u2_rx((math.pi / 2.0,))


def _u2_xm90(_: tuple[float, ...]) -> tuple[complex, ...]:
    return _u2_rx((-math.pi / 2.0,))


def _u2_y90(_: tuple[float, ...]) -> tuple[complex, ...]:
    return _u2_ry((math.pi / 2.0,))


def _u2_ym90(_: tuple[float, ...]) -> tuple[complex, ...]:
    return _u2_ry((-math.pi / 2.0,))


def _matrix_from(
    entries: Callable[[tuple[float, ...]], tuple[complex, ...]],
) -> Callable[[tuple[float, ...]], np.ndarray]:
    """The numpy matrix factory of a single-qubit gate's ``entries``."""

    def factory(params: tuple[float, ...]) -> np.ndarray:
        a, b, c, d = entries(params)
        return np.array([[a, b], [c, d]], dtype=complex)

    return factory


# ---------------------------------------------------------------------------
# Multi-qubit matrix factories
# ---------------------------------------------------------------------------

def _mat_cnot(_: tuple[float, ...]) -> np.ndarray:
    # Qubit order convention: qubits[0] is the control, qubits[1] the
    # target; basis ordering is |q0 q1> with q0 the most significant bit.
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )


def _mat_cz(_: tuple[float, ...]) -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(complex)


def _mat_cp(params: tuple[float, ...]) -> np.ndarray:
    (theta,) = params
    return np.diag([1, 1, 1, cmath.exp(1j * theta)]).astype(complex)


def _mat_crz(params: tuple[float, ...]) -> np.ndarray:
    (theta,) = params
    phase = cmath.exp(1j * theta / 2.0)
    return np.diag([1, 1, 1.0 / phase, phase]).astype(complex)


def _mat_rxx(params: tuple[float, ...]) -> np.ndarray:
    # Moelmer-Soerensen interaction exp(-i theta XX / 2), the native
    # trapped-ion entangler (paper Sec. VI-C).
    (theta,) = params
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, 0, 0, -1j * s],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [-1j * s, 0, 0, c],
        ],
        dtype=complex,
    )


def _mat_swap(_: tuple[float, ...]) -> np.ndarray:
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def _mat_toffoli(_: tuple[float, ...]) -> np.ndarray:
    m = np.eye(8, dtype=complex)
    m[[6, 7]] = m[[7, 6]]
    return m


def _mat_fredkin(_: tuple[float, ...]) -> np.ndarray:
    m = np.eye(8, dtype=complex)
    m[[5, 6]] = m[[6, 5]]
    return m


# ---------------------------------------------------------------------------
# Gate specification registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateSpec:
    """Static description of a named quantum operation.

    Attributes:
        name: Canonical lower-case name, the registry key.
        num_qubits: Arity of the operation.
        num_params: Number of real (angle) parameters.
        matrix: Factory mapping the parameter tuple to the unitary, or
            ``None`` for non-unitary pseudo-operations (measure, barrier).
        symmetric: True when exchanging the operand qubits leaves the
            operation unchanged (``CZ``, ``SWAP``, ``CP`` are symmetric;
            ``CNOT`` is not).  Routers use this to decide whether a
            directed coupling edge suffices in either orientation.
        self_inverse: True when the gate squared is the identity, which
            optimisers exploit to cancel adjacent duplicates.
        hermitian_params: For parametrised gates, ``True`` when the
            inverse is obtained by negating all parameters.
        entries: For single-qubit unitaries, factory mapping the
            parameter tuple to the four entries ``(u00, u01, u10, u11)``
            of the matrix as Python complex numbers; ``matrix`` is built
            from them.  ``None`` for every other operation.
    """

    name: str
    num_qubits: int
    num_params: int
    matrix: Callable[[tuple[float, ...]], np.ndarray] | None
    symmetric: bool = False
    self_inverse: bool = False
    hermitian_params: bool = False
    inverse_name: str | None = None
    entries: Callable[[tuple[float, ...]], tuple[complex, ...]] | None = None


GATE_SPECS: dict[str, GateSpec] = {}


def _register(spec: GateSpec) -> None:
    if spec.name in GATE_SPECS:
        raise ValueError(f"duplicate gate spec {spec.name!r}")
    GATE_SPECS[spec.name] = spec


def _single(name: str, num_params: int, entries, **flags) -> GateSpec:
    """The spec of a single-qubit unitary defined by its ``entries``."""
    return GateSpec(
        name, 1, num_params, _matrix_from(entries), entries=entries, **flags
    )


for _spec in [
    _single("i", 0, _u2_i, self_inverse=True),
    _single("x", 0, _u2_x, self_inverse=True),
    _single("y", 0, _u2_y, self_inverse=True),
    _single("z", 0, _u2_z, self_inverse=True),
    _single("h", 0, _u2_h, self_inverse=True),
    _single("s", 0, _u2_s, inverse_name="sdg"),
    _single("sdg", 0, _u2_sdg, inverse_name="s"),
    _single("t", 0, _u2_t, inverse_name="tdg"),
    _single("tdg", 0, _u2_tdg, inverse_name="t"),
    _single("rx", 1, _u2_rx, hermitian_params=True),
    _single("ry", 1, _u2_ry, hermitian_params=True),
    _single("rz", 1, _u2_rz, hermitian_params=True),
    _single("u", 3, _u2_u),
    _single("x90", 0, _u2_x90, inverse_name="xm90"),
    _single("xm90", 0, _u2_xm90, inverse_name="x90"),
    _single("y90", 0, _u2_y90, inverse_name="ym90"),
    _single("ym90", 0, _u2_ym90, inverse_name="y90"),
    GateSpec("cnot", 2, 0, _mat_cnot, self_inverse=True),
    # Shuttling (paper Sec. VI-C, silicon quantum dots): physically moves
    # a qubit into an *empty* neighbouring dot.  Unitarily it equals a
    # SWAP (the empty dot carries |0>), but it is a single cheap move
    # operation rather than three entangling gates.
    GateSpec("shuttle", 2, 0, _mat_swap, symmetric=True, self_inverse=True),
    GateSpec("cz", 2, 0, _mat_cz, symmetric=True, self_inverse=True),
    GateSpec("cp", 2, 1, _mat_cp, symmetric=True, hermitian_params=True),
    GateSpec("rxx", 2, 1, _mat_rxx, symmetric=True, hermitian_params=True),
    GateSpec("crz", 2, 1, _mat_crz, hermitian_params=True),
    GateSpec("swap", 2, 0, _mat_swap, symmetric=True, self_inverse=True),
    GateSpec("toffoli", 3, 0, _mat_toffoli, self_inverse=True),
    GateSpec("fredkin", 3, 0, _mat_fredkin, self_inverse=True),
    GateSpec("measure", 1, 0, None),
    GateSpec("prep_z", 1, 0, None),
    GateSpec("barrier", 0, 0, None),
]:
    _register(_spec)


#: Accepted spellings for gate names, mapped to the canonical registry key.
GATE_ALIASES: dict[str, str] = {
    "id": "i",
    "cx": "cnot",
    "ccx": "toffoli",
    "cswap": "fredkin",
    "u3": "u",
    "cphase": "cp",
    "sdag": "sdg",
    "tdag": "tdg",
    "mx90": "xm90",
    "my90": "ym90",
    "prepz": "prep_z",
}


def canonical_name(name: str) -> str:
    """Return the canonical registry key for ``name``.

    Raises:
        KeyError: if the name (after alias resolution) is unknown.
    """
    key = name.lower()
    key = GATE_ALIASES.get(key, key)
    if key not in GATE_SPECS:
        raise KeyError(f"unknown gate name {name!r}")
    return key


# ---------------------------------------------------------------------------
# Gate instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """A named quantum operation applied to concrete qubits.

    ``Gate`` is an immutable value object; circuits are lists of gates.
    Qubit indices refer either to *program* qubits (before mapping) or to
    *physical* qubits (after mapping) — the containing
    :class:`~repro.core.circuit.Circuit` records which.

    Attributes:
        name: Canonical gate name (a key of :data:`GATE_SPECS`).
        qubits: Operand qubit indices.  For controlled gates the controls
            come first and the target last.
        params: Real parameters (angles in radians).
        condition: Optional classical feedforward ``(bit, value)``: the
            gate executes only when the measurement result of qubit
            ``bit`` equals ``value`` (the classical-register model is one
            bit per qubit).  Used by teleportation-based routing.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    condition: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        spec = GATE_SPECS.get(self.name)
        if spec is None:
            raise ValueError(f"unknown gate {self.name!r}; use canonical_name()")
        if spec.name != "barrier" and len(self.qubits) != spec.num_qubits:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_qubits} qubits, "
                f"got {len(self.qubits)}"
            )
        if len(self.params) != spec.num_params:
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_params} params, "
                f"got {len(self.params)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate {self.name!r} has duplicate qubits {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"gate {self.name!r} has negative qubit index")
        if self.condition is not None:
            bit, value = self.condition
            if value not in (0, 1) or bit < 0:
                raise ValueError(f"bad condition {self.condition!r}")
            if spec.matrix is None:
                raise ValueError("only unitary gates can be conditioned")

    # -- static info ------------------------------------------------------

    @property
    def spec(self) -> GateSpec:
        return GATE_SPECS[self.name]

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2 and self.spec.matrix is not None

    @property
    def is_unitary(self) -> bool:
        return self.spec.matrix is not None

    @property
    def is_measurement(self) -> bool:
        return self.name == "measure"

    @property
    def is_barrier(self) -> bool:
        return self.name == "barrier"

    @property
    def is_symmetric(self) -> bool:
        return self.spec.symmetric

    # -- derived objects ---------------------------------------------------

    def matrix(self) -> np.ndarray:
        """The unitary matrix of this gate on its own qubits.

        Basis convention: ``qubits[0]`` is the most significant bit.

        Raises:
            ValueError: for non-unitary operations.
        """
        factory = self.spec.matrix
        if factory is None:
            raise ValueError(f"gate {self.name!r} has no unitary matrix")
        return factory(self.params)

    def inverse(self) -> "Gate":
        """The gate implementing the inverse unitary.

        Raises:
            ValueError: for non-unitary or classically-conditioned
                operations (a condition's defining measurement cannot be
                inverted).
        """
        spec = self.spec
        if spec.matrix is None:
            raise ValueError(f"gate {self.name!r} is not invertible")
        if self.condition is not None:
            raise ValueError("conditioned gates are not invertible")
        if spec.self_inverse:
            return self
        if spec.inverse_name is not None:
            return Gate(spec.inverse_name, self.qubits, self.params)
        if spec.hermitian_params:
            return Gate(self.name, self.qubits, tuple(-p for p in self.params))
        if self.name == "u":
            theta, phi, lam = self.params
            return Gate("u", self.qubits, (-theta, -lam, -phi))
        raise ValueError(f"no inverse rule for gate {self.name!r}")

    def remap(self, mapping: Mapping[int, int]) -> "Gate":
        """Return a copy acting on ``mapping[q]`` for each operand ``q``.

        A classical condition bit is remapped when present in ``mapping``
        and kept otherwise.
        """
        condition = self.condition
        if condition is not None:
            condition = (mapping.get(condition[0], condition[0]), condition[1])
        return Gate(
            self.name,
            tuple(mapping[q] for q in self.qubits),
            self.params,
            condition,
        )

    def reversed_qubits(self) -> "Gate":
        """Return a copy with the operand order reversed.

        Only meaningful for symmetric two-qubit gates, where it denotes
        the same operation.
        """
        return Gate(self.name, tuple(reversed(self.qubits)), self.params, self.condition)

    def __str__(self) -> str:
        args = ", ".join(f"q{q}" for q in self.qubits)
        text = f"{self.name} {args}"
        if self.params:
            angles = ", ".join(f"{p:.6g}" for p in self.params)
            text = f"{self.name}({angles}) {args}"
        if self.condition is not None:
            text += f" if c{self.condition[0]}=={self.condition[1]}"
        return text


# ---------------------------------------------------------------------------
# Constructor helpers
# ---------------------------------------------------------------------------

def i(q: int) -> Gate:
    """Identity gate."""
    return Gate("i", (q,))


def x(q: int) -> Gate:
    """Pauli-X (NOT) gate."""
    return Gate("x", (q,))


def y(q: int) -> Gate:
    """Pauli-Y gate."""
    return Gate("y", (q,))


def z(q: int) -> Gate:
    """Pauli-Z gate."""
    return Gate("z", (q,))


def h(q: int) -> Gate:
    """Hadamard gate."""
    return Gate("h", (q,))


def s(q: int) -> Gate:
    """Phase gate S = sqrt(Z)."""
    return Gate("s", (q,))


def sdg(q: int) -> Gate:
    """Inverse phase gate."""
    return Gate("sdg", (q,))


def t(q: int) -> Gate:
    """T gate = fourth root of Z (pi/8 gate)."""
    return Gate("t", (q,))


def tdg(q: int) -> Gate:
    """Inverse T gate."""
    return Gate("tdg", (q,))


def rx(theta: float, q: int) -> Gate:
    """Rotation about the X axis by ``theta`` radians."""
    return Gate("rx", (q,), (float(theta),))


def ry(theta: float, q: int) -> Gate:
    """Rotation about the Y axis by ``theta`` radians."""
    return Gate("ry", (q,), (float(theta),))


def rz(theta: float, q: int) -> Gate:
    """Rotation about the Z axis by ``theta`` radians."""
    return Gate("rz", (q,), (float(theta),))


def u(theta: float, phi: float, lam: float, q: int) -> Gate:
    """IBM's universal single-qubit gate Rz(phi) Ry(theta) Rz(lam)."""
    return Gate("u", (q,), (float(theta), float(phi), float(lam)))


def x90(q: int) -> Gate:
    """+90 degree X rotation (Surface-17 native)."""
    return Gate("x90", (q,))


def xm90(q: int) -> Gate:
    """-90 degree X rotation (Surface-17 native)."""
    return Gate("xm90", (q,))


def y90(q: int) -> Gate:
    """+90 degree Y rotation (Surface-17 native)."""
    return Gate("y90", (q,))


def ym90(q: int) -> Gate:
    """-90 degree Y rotation (Surface-17 native)."""
    return Gate("ym90", (q,))


def cnot(control: int, target: int) -> Gate:
    """Controlled-NOT with explicit control and target."""
    return Gate("cnot", (control, target))


def cz(a: int, b: int) -> Gate:
    """Controlled-Z (symmetric)."""
    return Gate("cz", (a, b))


def cp(theta: float, a: int, b: int) -> Gate:
    """Controlled phase gate (symmetric), used by the QFT workload."""
    return Gate("cp", (a, b), (float(theta),))


def crz(theta: float, control: int, target: int) -> Gate:
    """Controlled Rz rotation."""
    return Gate("crz", (control, target), (float(theta),))


def swap(a: int, b: int) -> Gate:
    """SWAP gate exchanging the states of two qubits."""
    return Gate("swap", (a, b))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    """Doubly-controlled NOT (CCX)."""
    return Gate("toffoli", (c1, c2, target))


def fredkin(control: int, a: int, b: int) -> Gate:
    """Controlled SWAP."""
    return Gate("fredkin", (control, a, b))


def measure(q: int) -> Gate:
    """Computational-basis measurement of one qubit."""
    return Gate("measure", (q,))


def prep_z(q: int) -> Gate:
    """Initialisation of one qubit to |0>."""
    return Gate("prep_z", (q,))


def barrier(*qubits: int) -> Gate:
    """Scheduling barrier across ``qubits`` (all qubits when empty)."""
    return Gate("barrier", tuple(qubits))


# ---------------------------------------------------------------------------
# Free functions
# ---------------------------------------------------------------------------

def gate_matrix(name: str, params: Iterable[float] = ()) -> np.ndarray:
    """Return the unitary of gate ``name`` with ``params``.

    Accepts aliases (``cx``, ``u3``, ...).
    """
    key = canonical_name(name)
    spec = GATE_SPECS[key]
    factory = spec.matrix
    if factory is None:
        raise ValueError(f"gate {name!r} has no unitary matrix")
    return factory(tuple(float(p) for p in params))


def is_unitary_gate(name: str) -> bool:
    """True when gate ``name`` has a unitary matrix (not measure/barrier)."""
    return GATE_SPECS[canonical_name(name)].matrix is not None
