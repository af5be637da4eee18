"""Euler-angle synthesis of single-qubit unitaries.

IBM's QX devices expose the elementary gate
``U(theta, phi, lam) = Rz(phi) Ry(theta) Rz(lam)`` (paper, Section IV);
"by adjusting the parameters, single-qubit gates of other gate libraries
like the H or the T gate can be realized".  This module computes those
parameters for an arbitrary 2x2 unitary — the ZYZ Euler decomposition —
so the decomposer can lower any single-qubit gate to one native ``u``
instruction (or to Rz/Ry rotation chains for other native sets).

The arithmetic is scalar: a matrix is read as its four entries (Python
``complex``), so the angles do not depend on the BLAS kernel numpy
happens to load.  Every function accepts a numpy array or any 2x2 nested
sequence, e.g. ``((u00, u01), (u10, u11))``.
"""

from __future__ import annotations

import cmath
import math

from ..core.gates import GATE_SPECS

__all__ = ["zyz_angles", "u_angles", "is_unitary"]

_ATOL = 1e-10

# The unitarity test is ``np.allclose(m @ m^H, I, atol=1e-8)``, whose
# rule is ``|a - b| <= atol + rtol * |b|`` entry by entry.
_UNITARY_ATOL = 1e-8
_RTOL = 1e-5


def zyz_angles(matrix) -> tuple[float, float, float, float]:
    """Decompose a 2x2 unitary as ``exp(i alpha) Rz(phi) Ry(theta) Rz(lam)``.

    Returns:
        ``(theta, phi, lam, alpha)`` with ``theta`` in ``[0, pi]``.

    Raises:
        ValueError: when ``matrix`` is not 2x2 or not (close to) unitary.
    """
    entries = _unitary_entries(matrix)
    theta, phi, lam, alpha = _zyz(*entries)

    # det(U) only fixes alpha modulo pi (the SU(2) double cover): check
    # the reconstruction and absorb a possible -1 into the phase.
    phase = cmath.exp(1j * alpha)
    reconstruction = [
        phase * z for z in GATE_SPECS["u"].entries((theta, phi, lam))
    ]
    magnitudes = [abs(z) for z in entries]
    pivot = magnitudes.index(max(magnitudes))
    if (
        magnitudes[pivot] > _ATOL
        and (reconstruction[pivot] / entries[pivot]).real < 0
    ):
        alpha += math.pi

    return theta, phi, lam, alpha


def u_angles(matrix) -> tuple[float, float, float]:
    """The ``(theta, phi, lam)`` realizing ``matrix`` up to global phase.

    The same angles as :func:`zyz_angles`, without the reconstruction
    that only fixes the global phase.
    """
    theta, phi, lam, _ = _zyz(*_unitary_entries(matrix))
    return theta, phi, lam


def is_unitary(matrix) -> bool:
    """``np.allclose(m @ m^H, I, atol=1e-8)`` for a 2x2 ``matrix``."""
    return _is_unitary(*_entries(matrix))


def _entries(matrix) -> tuple[complex, complex, complex, complex]:
    """``(u00, u01, u10, u11)`` of a 2x2 array or nested sequence."""
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        if tuple(shape) != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {tuple(shape)}")
        matrix = matrix.tolist()
    try:
        (a, b), (c, d) = matrix
        return complex(a), complex(b), complex(c), complex(d)
    except (TypeError, ValueError):
        raise ValueError(f"expected a 2x2 matrix, got {matrix!r}") from None


def _unitary_entries(matrix) -> tuple[complex, complex, complex, complex]:
    entries = _entries(matrix)
    if not _is_unitary(*entries):
        raise ValueError("matrix is not unitary")
    return entries


def _is_unitary(a: complex, b: complex, c: complex, d: complex) -> bool:
    ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    diagonal = _UNITARY_ATOL + _RTOL * 1.0
    return (
        abs(a * ac + b * bc - 1.0) <= diagonal
        and abs(a * cc + b * dc) <= _UNITARY_ATOL
        and abs(c * ac + d * bc) <= _UNITARY_ATOL
        and abs(c * cc + d * dc - 1.0) <= diagonal
    )


def _zyz(a: complex, b: complex, c: complex, d: complex):
    """``(theta, phi, lam, alpha)`` before the global-phase correction."""
    # Remove the global phase: det(U) = exp(2 i alpha) for U in SU(2)
    # scaled by exp(i alpha).
    alpha = cmath.phase(a * d - b * c) / 2.0
    unphase = cmath.exp(-1j * alpha)
    s00, s10, s11 = a * unphase, c * unphase, d * unphase

    # su2 = [[ cos(t/2) e^{-i(phi+lam)/2}, -sin(t/2) e^{-i(phi-lam)/2}],
    #        [ sin(t/2) e^{ i(phi-lam)/2},  cos(t/2) e^{ i(phi+lam)/2}]]
    cos_half = abs(s00)
    theta = 2.0 * math.acos(min(1.0, max(0.0, cos_half)))

    if cos_half > _ATOL and abs(s10) > _ATOL:
        plus = 2.0 * cmath.phase(s11)   # phi + lam
        minus = 2.0 * cmath.phase(s10)  # phi - lam
        phi = (plus + minus) / 2.0
        lam = (plus - minus) / 2.0
    elif cos_half > _ATOL:
        # theta ~ 0: only phi + lam matters; put it all in lam.
        phi = 0.0
        lam = 2.0 * cmath.phase(s11)
    else:
        # theta ~ pi: only phi - lam matters; put it all in phi... note
        # su2[1, 0] = sin(t/2) e^{i(phi-lam)/2}.
        lam = 0.0
        phi = 2.0 * cmath.phase(s10)

    # Wrap first: wrapping shifts angles by 2*pi, which flips the sign of
    # an SU(2) rotation, so the phase correction must see the final
    # angles.
    return theta, _wrap(phi), _wrap(lam), alpha


def _wrap(angle: float) -> float:
    """Wrap an angle to ``(-pi, pi]``."""
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped
