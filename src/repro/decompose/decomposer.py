"""Gate decomposition driver.

Lowers a circuit into the native gate set of a target device ("gate
decomposition", task 1 of the compiler in Section III-A).  Decomposition
is purely about gate *names*: connectivity and directions are handled
later by routing (:mod:`repro.mapping`).

The driver rewrites gates with the rule tables of
:mod:`repro.decompose.rules` until everything is native, falling back to
ZYZ Euler synthesis (:mod:`repro.decompose.euler`) for single-qubit gates
without a direct rule.  Equivalence is up to global phase, which is
exactly what hardware realises.
"""

from __future__ import annotations

from itertools import chain

from ..core.circuit import Circuit
from ..core import gates as G
from ..core.gates import Gate
from ..devices.device import Device
from . import rules
from .euler import u_angles

__all__ = ["decompose_circuit", "decompose_gate", "count_native_misses"]

_MAX_PASSES = 16


def decompose_gate(gate: Gate, device: Device) -> list[Gate]:
    """Rewrite ``gate`` one step toward the native set of ``device``.

    Returns a gate list equivalent to ``gate`` up to global phase; the
    result may need further passes (e.g. a Toffoli first becomes CNOTs
    and T gates, which on Surface-17 then become CZ and rotations).

    Raises:
        ValueError: when no rule makes progress (non-universal target).
    """
    if device.is_native(gate) or gate.is_barrier or not gate.is_unitary:
        return [gate]

    if gate.condition is not None:
        # A classically conditioned gate decomposes into the same
        # sequence with the condition on every factor: the whole block
        # fires or skips together, and any global-phase mismatch of the
        # expansion is unobservable within a measurement trajectory.
        bare = Gate(gate.name, gate.qubits, gate.params)
        return [
            Gate(g.name, g.qubits, g.params, gate.condition)
            for g in decompose_gate(bare, device)
        ]

    surface_style = _is_surface_basis(device)

    # A shuttle on hardware without shuttling support degenerates to the
    # SWAP it is unitarily equal to (paper Sec. VI-C).
    if gate.name == "shuttle":
        return [Gate("swap", gate.qubits)]

    # Composite gates first: multi-qubit and symmetric-phase gates reduce
    # to the CNOT + single-qubit basis, and CNOT reduces to CZ if needed.
    if gate.name in rules.CNOT_RULES and gate.name != "cz":
        if gate.name == "swap" and device.two_qubit_gate == "cz":
            return rules.expand_swap_to_cz(*gate.qubits)
        return rules.CNOT_RULES[gate.name](gate.params, gate.qubits)
    if gate.name == "cz" and "cz" not in device.native_gates:
        return rules.CNOT_RULES["cz"](gate.params, gate.qubits)
    if gate.name == "cnot" and "cnot" not in device.native_gates:
        if "cz" in device.native_gates:
            return rules.expand_cnot_to_cz(*gate.qubits)
        if "rxx" in device.native_gates:
            return rules.expand_cnot_to_rxx(*gate.qubits)
        raise ValueError(
            f"device {device.name!r} has no rule for entangler "
            f"{device.two_qubit_gate!r}"
        )

    if len(gate.qubits) == 1:
        if surface_style:
            rule = rules.SURFACE_1Q_RULES.get(gate.name)
            if rule is not None:
                return rule(gate.params, gate.qubits)
        elif "u" in device.native_gates:
            rule = rules.IBM_1Q_RULES.get(gate.name)
            if rule is not None:
                return rule(gate.params, gate.qubits)
        # Fallback: synthesise from the unitary.
        theta, phi, lam = u_angles(gate.matrix())
        q = gate.qubits[0]
        if surface_style:
            return rules.SURFACE_1Q_RULES["u"]((theta, phi, lam), (q,))
        if "u" in device.native_gates:
            return [G.u(theta, phi, lam, q)]
        if {"rz", "ry"} <= device.native_gates:
            # Rotation-only basis (trapped ions): plain ZYZ chain.
            return [G.rz(lam, q), G.ry(theta, q), G.rz(phi, q)]
        raise ValueError(
            f"device {device.name!r} has no universal single-qubit basis"
        )

    raise ValueError(f"no decomposition rule for gate {gate.name!r} on {device.name!r}")


def decompose_circuit(circuit: Circuit, device: Device) -> Circuit:
    """Lower every gate of ``circuit`` into the native set of ``device``.

    The output circuit is equivalent to the input up to global phase and
    contains only native gates (plus measure/prep/barrier).

    Each distinct gate is rewritten once per call: :func:`decompose_gate`
    runs on it a single time, level by level (the gates of the input,
    then the gates their rewrites produce, and so on), and every
    occurrence of the gate takes its memoised native expansion.  The
    output is the one repeated whole-circuit rewriting would give,
    including which ``ValueError`` comes first.  Distinct means a
    different ``repr``, so ``0.0`` and ``-0.0`` angles stay apart.  The
    memo lives for this call only.

    Raises:
        ValueError: when rewriting fails to converge within
            ``_MAX_PASSES`` levels, meaning the device's native set is
            not universal for the input.
    """
    # The memo key of each distinct gate object, computed once: lowered
    # circuits share gate objects, so most occurrences skip the key.
    idents = list(map(id, circuit.gates))
    keys: dict[int, tuple] = {}
    level: dict[tuple, Gate] = {}
    for ident, gate in dict(zip(idents, circuit.gates)).items():
        key = keys[ident] = _memo_key(gate)
        level[key] = gate
    # Key -> (replacement, the replacement's keys), the keys ``None``
    # when the gate is already native.
    steps: dict[tuple, tuple[list[Gate], list[tuple] | None]] = {}
    for _ in range(_MAX_PASSES):
        changed = False
        produced: dict[tuple, Gate] = {}
        for key, gate in level.items():
            step = steps.get(key)
            if step is None:
                replacement = decompose_gate(gate, device)
                if len(replacement) == 1 and (
                    replacement[0] is gate or replacement[0] == gate
                ):
                    step = steps[key] = (replacement, None)
                else:
                    step = steps[key] = (
                        replacement, [_memo_key(g) for g in replacement]
                    )
            replacement, child_keys = step
            if child_keys is not None:
                changed = True
                for child_key, g in zip(child_keys, replacement):
                    produced.setdefault(child_key, g)
        if not changed:
            break
        level = produced
    else:
        raise ValueError(
            f"decomposition did not converge on device {device.name!r}; "
            f"native set {sorted(device.native_gates)} may not be universal"
        )

    expansions: dict[tuple, list[Gate]] = {}

    def expand(key: tuple) -> list[Gate]:
        native = expansions.get(key)
        if native is None:
            replacement, child_keys = steps[key]
            if child_keys is None:
                native = replacement
            else:
                native = []
                for child_key in child_keys:
                    native.extend(expand(child_key))
            expansions[key] = native
        return native

    lowered = {ident: expand(key) for ident, key in keys.items()}
    out = Circuit(circuit.num_qubits, name=circuit.name)
    out.gates.extend(chain.from_iterable(map(lowered.__getitem__, idents)))
    return out


def _memo_key(gate: Gate) -> tuple:
    """Memo key of ``gate``.

    ``Gate`` equality holds between ``0.0`` and ``-0.0`` angles, which
    print (and lower) differently, so parameters key by their ``repr``.
    """
    params = gate.params
    return (gate.name, gate.qubits, repr(params) if params else (), gate.condition)


def count_native_misses(circuit: Circuit, device: Device) -> int:
    """Number of gates that are not native to ``device``."""
    return sum(
        1
        for g in circuit.gates
        if g.is_unitary and not device.is_native(g)
    )


def _is_surface_basis(device: Device) -> bool:
    """True when the device lacks ``u`` but has X/Y rotations (Surface)."""
    natives = device.native_gates
    return "u" not in natives and "rz" not in natives and {"rx", "ry"} <= natives
