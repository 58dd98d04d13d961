"""Butterworth basis-function poles in the s-plane and their z-plane images.

The z-plane mapping is impulse invariance, ``z = exp(T_s * s)``.  Causal
designs keep the K left-half-plane poles; non-causal designs use all 2K.
"""

from __future__ import annotations

import numpy as np


class NumericalError(ValueError):
    """A singular or degenerate system: the spec is valid, the numerics fail."""


def butterworth_s_poles(K: int, omega_c: float) -> np.ndarray:
    """The 2K roots of 1 + (-s^2/omega_c^2)^K = 0, sorted by angle.

    All roots lie on the circle |s| = omega_c; exactly K of them are in the
    left half-plane.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    if omega_c <= 0:
        raise ValueError("omega_c must be positive")
    coeffs = np.zeros(2 * K + 1, dtype=complex)
    try:
        coeffs[0] = (-1.0 / omega_c**2) ** K
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError("Butterworth polynomial coefficient "
                             "(-1/omega_c^2)^K is out of floating-point "
                             f"range at omega_c = {omega_c!r}") from exc
    coeffs[-1] = 1.0
    roots = np.roots(coeffs)
    # Exact magnitude by construction; renormalize away rounding and order
    # deterministically by angle.
    roots = omega_c * roots / np.abs(roots)
    return roots[np.argsort(np.angle(roots))]


def _check_nyquist(omega_c: float, t_s: float) -> None:
    if t_s <= 0:
        raise ValueError("T_s must be positive")
    if omega_c * t_s >= np.pi:
        raise ValueError("bandwidth exceeds Nyquist: omega_c * T_s must be < pi")


def causal_z_poles(K: int, omega_c: float, t_s: float) -> np.ndarray:
    """z-plane poles exp(T_s * s_k) for the K left-half-plane s-poles."""
    _check_nyquist(omega_c, t_s)
    s = butterworth_s_poles(K, omega_c)
    lhp = s[s.real < 0]
    if len(lhp) != K:
        # np.roots misplaces the roots at high K until one crosses the
        # imaginary axis.
        raise NumericalError("pole count must equal the constraint count K: "
                             f"{len(lhp)} of the {2 * K} Butterworth poles "
                             "lie in the left half-plane")
    return np.exp(t_s * lhp)


def full_z_poles(K: int, omega_c: float, t_s: float) -> np.ndarray:
    """z-plane poles exp(T_s * s_k) over all 2K s-poles (K inside, K outside)."""
    _check_nyquist(omega_c, t_s)
    s = butterworth_s_poles(K, omega_c)
    if len(s) != 2 * K:
        # The coefficient (-1/omega_c^2)^K underflows to 0 at extreme
        # omega_c, and np.roots drops the roots it leads.
        raise NumericalError("pole count must equal the constraint count "
                             f"2K: np.roots found {len(s)} of the {2 * K} "
                             "Butterworth poles")
    return np.exp(t_s * s)
