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

from .design import (DesignSpec, FilterbankDesign, basis_derivative_column,
                     constraint_blocks, dc_targets)

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

# Central finite-difference stencils for derivative orders 0..3; order 0
# is the response itself.
_FD_STENCILS = {
    0: ([0], [1.0]),
    1: ([-1, 1], [-0.5, 0.5]),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
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


def _bank_derivative(design: FilterbankDesign, omega_d: float, k_t: int,
                     max_order: int) -> np.ndarray:
    """Frequency derivatives 0..max_order-1 of output k_t at omega_d, from
    the partial-fraction (basis) representation."""
    cols = np.column_stack([
        basis_derivative_column(p, omega_d, max_order)
        for p in design.poles])
    return cols @ design.c[:, k_t]


def _fd_derivative(design: FilterbankDesign, omega_d: float, k_t: int,
                   order: int) -> Tuple[complex, float]:
    """Central finite difference plus its rounding-noise scale.

    Each response sample H = B(z)/A(z) carries relative rounding noise
    amplified by the evaluation condition number of the two polynomials
    (sum of absolute coefficients over the achieved value); the stencil
    divides that noise by h^order. Below the returned scale the estimate
    carries no information.
    """
    offsets, weights = _FD_STENCILS[order]
    w = omega_d + FD_STEP * np.asarray(offsets, dtype=float)
    z = np.exp(1j * w)
    b, a = design.b[k_t], design.a
    a_val = np.polyval(a, z)
    vals = np.polyval(b, z) / a_val
    est = np.dot(weights, vals) / FD_STEP ** order
    sum_b = float(np.sum(np.abs(b)))
    sum_a = float(np.sum(np.abs(a)))
    noise = COEFF_EPS * (sum_b + np.abs(vals) * sum_a) / np.abs(a_val)
    scale = float(np.dot(np.abs(weights), noise)) / FD_STEP ** order
    return complex(est), scale


def verify_constraints(spec: DesignSpec,
                       design: FilterbankDesign) -> List[ConstraintCheck]:
    """Re-derive every design constraint two independent ways.

    The analytic path evaluates the basis-derivative expansion; the
    finite-difference path probes the realized transfer function directly
    (orders 0..3).  Both are compared to the constraint targets.
    """
    report: List[ConstraintCheck] = []
    blocks = constraint_blocks(spec)
    for kt in range(spec.k_t):
        q_kt = design.q if design.q_per_output is None \
            else design.q_per_output[kt]
        targets_dc = dc_targets(q_kt, design.t_s, spec.k_w_dc, kt)
        for w_d, count in blocks:
            analytic = _bank_derivative(design, w_d, kt, count + 3)
            for kw in range(count):
                target = targets_dc[kw] if w_d == 0.0 else 0.0 + 0.0j
                scale = 1.0 + abs(target)
                a_ok = abs(analytic[kw] - target) <= 1e-6 * scale
                fd_val = None
                fd_ok = True
                if kw <= FD_MAX_ORDER:
                    fd_val, fd_noise = _fd_derivative(design, w_d, kt, kw)
                    # A second-order-accurate stencil carries truncation
                    # error ~ h^2 |f^(k+2)| plus the rounding noise of the
                    # sampled responses; neither is resolvable, so both
                    # enter the acceptance bound.  Order 0 samples the
                    # response itself and has no truncation error.
                    trunc = FD_STEP ** 2 * abs(analytic[kw + 2]) if kw else 0.0
                    fd_ok = abs(fd_val - target) \
                        <= FD_RTOL * scale + trunc + 10.0 * fd_noise
                report.append(ConstraintCheck(w_d, kw, kt, target,
                                              analytic[kw], fd_val,
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
