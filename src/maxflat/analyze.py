"""Frequency-domain and steady-state analysis of filterbank designs.

Covers transfer-function responses, comparison against the ideal delayed
differentiator, independent verification of the design constraints, group
delay measurement, and the closed-form steady-state error of a tracker
following a constant-rate circular orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .design import (DesignSpec, FilterbankDesign, NumericalError,
                     alpha_table, constraint_blocks, dc_targets)

#: Step for finite-difference verification of derivative constraints.
FD_STEP = 1e-3
#: Relative tolerance for the finite-difference probe.
FD_RTOL = 1e-4
#: Highest derivative order checked by finite differences.
FD_MAX_ORDER = 3
#: Relative uncertainty of expanded transfer-function coefficients.
#: Products of tightly clustered poles lose digits in the expansion, so
#: coefficients are trustworthy only to about this level, not machine eps.
COEFF_EPS = 1e-11
#: Relative response magnitude below which an orbit track is considered
#: collapsed to the centre (angular error undefined, reported as 0).
NULL_RADIUS_TOL = 1e-9

# The finite differences sample the response at omega_d + FD_STEP * offset
# for these five offsets.  The central stencils of derivative orders 0..3
# each take a subset of them: (indices into _FD_OFFSETS, weights).  Order 0
# is the response itself.
_FD_OFFSETS = np.arange(-2.0, 3.0)
_FD_STENCILS = {
    0: ([2], np.array([1.0])),
    1: ([1, 3], np.array([-0.5, 0.5])),
    2: ([1, 2, 3], np.array([1.0, -2.0, 1.0])),
    3: ([0, 1, 3, 4], np.array([-0.5, 1.0, -1.0, 0.5])),
}


@dataclass(frozen=True)
class OrbitError:
    """Steady-state circular-orbit tracking error."""

    eps_r: float
    eps_theta: float


@dataclass(frozen=True)
class ConstraintCheck:
    omega_d: float
    k_omega: float
    k_t: int
    target: complex
    analytic: complex
    fd_estimate: Optional[complex]
    analytic_ok: bool
    fd_ok: bool


def frequency_response(b: np.ndarray, a: np.ndarray,
                       omegas: np.ndarray) -> np.ndarray:
    """H(e^{iw}) = B(e^{iw}) / A(e^{iw}) for descending-power b, a."""
    z = np.exp(1j * np.asarray(omegas, dtype=float))
    return np.polyval(b, z) / np.polyval(a, z)


def ideal_response(k_t: int, q: float, t_s: float,
                   omegas: np.ndarray) -> np.ndarray:
    """Delayed ideal differentiator: e^{-iqw} (iw/T_s)^{k_t}."""
    w = np.asarray(omegas, dtype=float)
    return np.exp(-1j * q * w) * (1j * w / t_s) ** k_t


def complex_error(h: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """Pointwise |H - D| against the ideal response on the same grid."""
    return np.abs(np.asarray(h) - np.asarray(ideal))


def design_response(design: FilterbankDesign, omegas: np.ndarray,
                    k_t: int = 0) -> np.ndarray:
    return frequency_response(design.b[k_t], design.a, omegas)


def noncausal_response(forward: FilterbankDesign, backward: FilterbankDesign,
                       omegas: np.ndarray, k_t: int = 0) -> np.ndarray:
    """Response of a split design; the backward half, run time-reversed,
    contributes B(e^{-iw})/A(e^{-iw}) on the original axis."""
    w = np.asarray(omegas, dtype=float)
    return (frequency_response(forward.b[k_t], forward.a, w)
            + frequency_response(backward.b[k_t], backward.a, -w))


def _bank_derivatives(design: FilterbankDesign, omega_d: float,
                      n: int) -> np.ndarray:
    """Frequency derivatives 0..n-1 (rows) of every output (columns) at
    omega_d, from the partial-fraction (basis) representation.

    Row k is i^k sum_l alpha_{k,l} (-1)^l psi^{l+1} C, with psi the basis
    functions z / (z - p) of all poles at z = e^{i omega_d}.
    """
    z = np.exp(1j * omega_d)
    if np.any(np.abs(z - design.poles) < 1e-12):
        raise NumericalError("singular basis evaluation: pole on the unit "
                             "circle at a constraint frequency")
    psi = z / (z - design.poles)
    orders = np.arange(n)
    powers = psi ** (orders[:, None] + 1) * (-1.0) ** orders[:, None]
    return (1j ** orders)[:, None] * (alpha_table(n) @ powers @ design.c)


def _fd_samples(design: FilterbankDesign,
                omega_d: float) -> Tuple[np.ndarray, np.ndarray]:
    """Responses H = B(z)/A(z) of every output (rows) at the stencil points
    around omega_d (columns), and the rounding-noise scale of each.

    Each response sample carries relative rounding noise amplified by the
    evaluation condition number of the two polynomials (sum of absolute
    coefficients over the achieved value).  A stencil divides that noise by
    h^order; below the resulting scale an estimate carries no information.
    """
    z = np.exp(1j * (omega_d + FD_STEP * _FD_OFFSETS))
    coeffs = np.vstack(design.b + (design.a,))
    # One Horner pass evaluates every numerator and the denominator.
    vals = np.zeros((len(coeffs), len(z)), dtype=complex)
    for col in coeffs.T:
        vals = vals * z + col[:, None]
    a_val = vals[-1]
    h = vals[:-1] / a_val
    sums = np.sum(np.abs(coeffs), axis=1)
    noise = COEFF_EPS * (sums[:-1, None] + np.abs(h) * sums[-1]) \
        / np.abs(a_val)
    return h, noise


def verify_constraints(spec: DesignSpec,
                       design: FilterbankDesign) -> List[ConstraintCheck]:
    """Re-derive every design constraint two independent ways.

    The analytic path evaluates the basis-derivative expansion; the
    finite-difference path probes the realized transfer function directly
    (orders 0..3).  Both are compared to the constraint targets.  Each
    constraint frequency is evaluated once for all outputs; the report
    lists the checks by output, then block, then order.
    """
    blocks = [(w_d, count, _bank_derivatives(design, w_d, count + 3),
               _fd_samples(design, w_d))
              for w_d, count in constraint_blocks(spec)]
    report: List[ConstraintCheck] = []
    for kt in range(spec.k_t):
        targets_dc = dc_targets(design.q, design.t_s, spec.k_w_dc, kt)
        for w_d, count, analytic, (h, noise) in blocks:
            for kw in range(count):
                target = targets_dc[kw] if w_d == 0.0 else 0.0 + 0.0j
                scale = 1.0 + abs(target)
                a_ok = abs(analytic[kw, kt] - target) <= 1e-6 * scale
                fd_val = None
                fd_ok = True
                if kw <= FD_MAX_ORDER:
                    idx, weights = _FD_STENCILS[kw]
                    fd_val = complex(np.dot(weights, h[kt, idx])
                                     / FD_STEP ** kw)
                    fd_noise = float(np.dot(np.abs(weights), noise[kt, idx])) \
                        / FD_STEP ** kw
                    # A second-order-accurate stencil carries truncation
                    # error ~ h^2 |f^(k+2)| plus the rounding noise of the
                    # sampled responses; neither is resolvable, so both
                    # enter the acceptance bound.  Order 0 samples the
                    # response itself and has no truncation error.
                    trunc = FD_STEP ** 2 * abs(analytic[kw + 2, kt]) \
                        if kw else 0.0
                    fd_ok = abs(fd_val - target) \
                        <= FD_RTOL * scale + trunc + 10.0 * fd_noise
                report.append(ConstraintCheck(w_d, kw, kt, target,
                                              analytic[kw, kt], fd_val,
                                              a_ok, fd_ok))
    return report


def measured_group_delay(b: np.ndarray, a: np.ndarray,
                         omegas: np.ndarray) -> np.ndarray:
    """-d(unwrapped phase)/dw by central differences on the given grid."""
    w = np.asarray(omegas, dtype=float)
    phase = np.unwrap(np.angle(frequency_response(b, a, w)))
    return -np.gradient(phase, w)


def orbit_steady_state(design: FilterbankDesign, f_orb: float, r_orb: float,
                       q: Optional[float] = None) -> OrbitError:
    """Steady-state error of the smoother tracking a circular orbit.

    A constant-rate orbit of radius r_orb at f_orb cycles/sample is a
    complex exponential, so the smoother output is H(w) times it with
    w = 2 pi f_orb.  After removing the nominal delay q, the radial error
    is (|H(w)| - 1) r_orb and the angular error is angle(H(w)) + q w.
    """
    if not 0 <= f_orb < 0.5:
        raise ValueError("f_orb must lie in [0, 0.5) cycles/sample")
    if q is None:
        q = design.q
    w = 2.0 * np.pi * f_orb
    h = complex(design_response(design, np.array([w]), 0)[0])
    eps_r = (abs(h) - 1.0) * r_orb
    if abs(h) < NULL_RADIUS_TOL:
        # At a response null the track collapses to the centre and the
        # angular error is the angle of a zero-length vector; report 0.
        eps_theta = 0.0
    else:
        eps_theta = float(np.angle(h)) + q * w
        eps_theta = float((eps_theta + np.pi) % (2.0 * np.pi) - np.pi)
    return OrbitError(eps_r=eps_r, eps_theta=eps_theta)
