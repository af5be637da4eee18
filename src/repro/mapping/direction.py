"""CNOT direction fixing for devices with asymmetric two-qubit gates.

Section IV: on the IBM QX devices a CNOT "has to follow a firmly defined
scheme of which qubit may work as target and which qubit may work as
control"; when routing places a CNOT against the allowed orientation,
"extra Hadamard gates may be required to invert the role of the control
and target qubits" (Section VI-A).  This post-routing pass applies the
four-Hadamard identity to every wrong-direction CNOT.  A conditioned
CNOT keeps its condition on all five gates, so the block fires or skips
as a whole.

Symmetric gates (CZ, SWAP, CP) never need fixing; on symmetric devices
the pass is the identity.

Cost model.  Lowering repeats a gate as the same object, and few are
distinct (a ``small_devices`` job: 189 two-qubit gates, 31 distinct).
The pass decides once per gate object to keep, raise or flip, checks
its qubit bounds once, and hands every repeat the same immutable gates.
On a symmetric device it copies the gate list without looking at it.
"""

from __future__ import annotations

from ..core.circuit import Circuit
from ..core.gates import Gate
from ..devices.device import Device

__all__ = ["fix_directions", "count_wrong_directions"]


def count_wrong_directions(circuit: Circuit, device: Device) -> int:
    """Number of two-qubit gates whose orientation the device forbids."""
    if device.symmetric:
        return 0
    wrong = 0
    for gate in circuit.gates:
        if gate.is_two_qubit and not gate.is_symmetric:
            a, b = gate.qubits
            if not device.has_edge(a, b) and device.has_edge(b, a):
                wrong += 1
    return wrong


def fix_directions(circuit: Circuit, device: Device) -> tuple[Circuit, int]:
    """Reverse forbidden-orientation CNOTs with four Hadamards each.

    Args:
        circuit: A routed circuit on physical qubits (every two-qubit gate
            already on a connected pair).
        device: The target device.

    Returns:
        ``(fixed_circuit, flips)`` where ``flips`` counts reversed CNOTs.

    Raises:
        ValueError: when a two-qubit gate sits on an unconnected pair or a
            non-CNOT asymmetric gate needs reversal (no rule).
    """
    out = Circuit(circuit.num_qubits, name=circuit.name)
    if device.symmetric:
        out.gates.extend(circuit.gates)
        return out, 0

    flips = 0
    # Gate object -> itself, or its five-gate flip.
    fixed: dict[int, tuple[Gate, ...]] = {}
    gates = out.gates
    for gate in circuit.gates:
        replacement = fixed.get(id(gate))
        if replacement is None:
            replacement = fixed[id(gate)] = _flip(gate, device) or (gate,)
            out.extend(replacement)
        else:
            gates += replacement
        if len(replacement) > 1:
            flips += 1
    return out, flips


def _flip(gate: Gate, device: Device) -> tuple[Gate, ...]:
    """The five gates that reverse ``gate``, or ``()`` to keep it."""
    if not gate.is_two_qubit or gate.is_symmetric:
        return ()
    a, b = gate.qubits
    if device.has_edge(a, b):
        return ()
    if not device.has_edge(b, a):
        raise ValueError(f"gate {gate} is on an unconnected pair; route first")
    if gate.name != "cnot":
        raise ValueError(f"no direction-flip rule for {gate.name!r}")
    condition = gate.condition
    ha = Gate("h", (a,), (), condition)
    hb = Gate("h", (b,), (), condition)
    return (ha, hb, Gate("cnot", (b, a), (), condition), ha, hb)
