"""Controlled and multi-controlled gate synthesis.

Section IV: "all gates acting over more than two qubits, such as the
Toffoli operation or the Fredkin operation, have to be decomposed" —
citing the classic synthesis literature [20]-[23].  This module provides
the standard constructions beyond the fixed Toffoli/Fredkin rules:

* :func:`controlled_unitary` — any controlled single-qubit unitary from
  two CNOTs and single-qubit rotations (the ABC decomposition);
* :func:`multi_controlled_x` / :func:`multi_controlled_z` — n-controlled
  NOT/Z via the Toffoli ladder over clean ancilla qubits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core import gates as G
from ..core.gates import Gate
from .euler import zyz_angles

__all__ = [
    "controlled_unitary",
    "controlled_gate",
    "multi_controlled_x",
    "multi_controlled_z",
]

_EPS = 1e-12


def controlled_unitary(
    matrix: np.ndarray, control: int, target: int
) -> list[Gate]:
    """Synthesise controlled-``matrix`` from CNOTs and rotations.

    Uses the ABC decomposition: with
    ``U = exp(i alpha) Rz(phi) Ry(theta) Rz(lam)`` choose

    * ``A = Rz(phi) Ry(theta / 2)``
    * ``B = Ry(-theta / 2) Rz(-(phi + lam) / 2)``
    * ``C = Rz((lam - phi) / 2)``

    so that ``A B C = I`` and ``A X B X C = U`` (up to the phase), giving
    ``CU = P(alpha)_control . A . CNOT . B . CNOT . C`` where ``P`` is a
    phase gate realised as ``Rz`` (exact, not just up to global phase).

    Returns:
        Gate list in circuit order; at most 2 CNOTs and 5 rotations.
    """
    theta, phi, lam, alpha = zyz_angles(matrix)
    sequence: list[Gate] = []

    # C (applied first)
    c_angle = (lam - phi) / 2.0
    if abs(c_angle) > _EPS:
        sequence.append(G.rz(c_angle, target))
    sequence.append(G.cnot(control, target))
    # B
    b_rz = -(phi + lam) / 2.0
    if abs(b_rz) > _EPS:
        sequence.append(G.rz(b_rz, target))
    if abs(theta) > _EPS:
        sequence.append(G.ry(-theta / 2.0, target))
    sequence.append(G.cnot(control, target))
    # A
    if abs(theta) > _EPS:
        sequence.append(G.ry(theta / 2.0, target))
    if abs(phi) > _EPS:
        sequence.append(G.rz(phi, target))
    # Phase on the control: P(alpha) = e^{i alpha/2} Rz(alpha); realise
    # the exact phase gate with Rz plus a *global* phase, which is
    # unobservable.
    if abs(alpha) > _EPS:
        sequence.append(G.rz(alpha, control))
    return sequence


def controlled_gate(gate: Gate, control: int) -> list[Gate]:
    """Controlled version of a single-qubit ``gate`` (ABC synthesis).

    Note: the result implements ``control-U`` up to a *global* phase when
    ``gate``'s matrix carries a phase (e.g. controlled-X synthesised this
    way is an exact CNOT up to global phase).
    """
    if len(gate.qubits) != 1 or not gate.is_unitary:
        raise ValueError(f"controlled_gate needs a 1-qubit unitary, got {gate}")
    return controlled_unitary(gate.matrix(), control, gate.qubits[0])


def multi_controlled_x(
    controls: Sequence[int],
    target: int,
    ancillas: Sequence[int] = (),
) -> list[Gate]:
    """n-controlled NOT via the Toffoli ladder.

    Args:
        controls: Control qubits (1, 2, or more).
        target: Target qubit.
        ancillas: Clean (|0>) work qubits; ``len(controls) - 2`` are
            required when ``len(controls) > 2``.  They are returned to
            |0> by the uncomputation half of the ladder.

    Returns:
        Gate list in circuit order.

    Raises:
        ValueError: on overlapping operands or insufficient ancillas.
    """
    controls = list(controls)
    if not controls:
        raise ValueError("need at least one control")
    operands = set(controls) | {target} | set(ancillas)
    if len(operands) != len(controls) + 1 + len(ancillas):
        raise ValueError("controls, target, and ancillas must be distinct")
    if len(controls) == 1:
        return [G.cnot(controls[0], target)]
    if len(controls) == 2:
        return [G.toffoli(controls[0], controls[1], target)]
    needed = len(controls) - 2
    if len(ancillas) < needed:
        raise ValueError(
            f"{len(controls)}-controlled X needs {needed} clean ancillas, "
            f"got {len(ancillas)}"
        )
    work = list(ancillas[:needed])

    compute: list[Gate] = [G.toffoli(controls[0], controls[1], work[0])]
    for index in range(needed - 1):
        compute.append(
            G.toffoli(controls[2 + index], work[index], work[index + 1])
        )
    final = G.toffoli(controls[-1], work[-1], target)
    return compute + [final] + list(reversed(compute))


def multi_controlled_z(
    controls: Sequence[int],
    target: int,
    ancillas: Sequence[int] = (),
) -> list[Gate]:
    """n-controlled Z: H-conjugated :func:`multi_controlled_x`."""
    return (
        [G.h(target)]
        + multi_controlled_x(controls, target, ancillas)
        + [G.h(target)]
    )
