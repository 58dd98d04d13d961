"""Frequency-domain and steady-state analysis of filterbank designs.

Covers transfer-function responses, comparison against the ideal delayed
differentiator, independent verification of the design constraints, group
delay measurement, and the closed-form steady-state error of a tracker
following a constant-rate circular orbit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .design import (DesignSpec, FilterbankDesign, alpha_table,
                     constraint_blocks, constraint_gap, dc_targets)

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
# for these five offsets.  Row k of _FD_WEIGHTS is the central stencil of
# derivative order k (0..3) over those samples, before its division by
# FD_STEP**k; order 0 is the response itself.
_FD_OFFSETS = np.arange(-2.0, 3.0)
_FD_WEIGHTS = np.array([[0.0, 0.0, 1.0, 0.0, 0.0],
                        [0.0, -0.5, 0.0, 0.5, 0.0],
                        [0.0, 1.0, -2.0, 1.0, 0.0],
                        [-0.5, 1.0, 0.0, -1.0, 0.5]])
_FD_SCALES = np.array([FD_STEP ** k for k in range(FD_MAX_ORDER + 1)])


@dataclass(frozen=True)
class OrbitError:
    """Steady-state circular-orbit tracking error."""

    eps_r: float
    eps_theta: float


class ConstraintCheck(NamedTuple):
    """One constraint of a design, checked two ways; immutable."""
    omega_d: float
    k_omega: float
    k_t: int
    target: complex
    analytic: complex
    fd_estimate: Optional[complex]
    analytic_ok: bool
    fd_ok: bool


def _horner(rows, z: np.ndarray) -> np.ndarray:
    """Each coefficient row at every point of the 1-D z, as a polynomial in
    descending powers of z after padding the shorter rows with trailing
    zeros (the z^-1 convention: entry n multiplies z^-n), bit for bit
    ``np.polyval`` of the padded rows: one in-place pass over complex
    rows."""
    width = max(map(len, rows))
    cols = np.zeros((width, len(rows), 1), dtype=complex)
    for i, row in enumerate(rows):
        cols[:len(row), i, 0] = row
    vals = cols[0].repeat(len(z), axis=1)
    for col in cols[1:]:
        vals *= z
        vals += col
    return vals


#: Grids of at most this many points have their unit-circle points
#: memoized.
_UNIT_CIRCLE_MAX_N = 4096
#: The unit-circle memo holds at most this many grids, least recently used
#: out first: a grid and its negation (``noncausal_response``) and two
#: more.  An entry of 4,096 points holds 64 KB of points and a 32 KB key,
#: so the memo never holds more than 384 KB.
_UNIT_CIRCLE_MEMO_SIZE = 4


@functools.lru_cache(maxsize=_UNIT_CIRCLE_MEMO_SIZE)
def _memo_unit_circle(key: bytes) -> np.ndarray:
    z = np.exp(1j * np.frombuffer(key, dtype=float))
    z.flags.writeable = False
    return z


def _unit_circle(w: np.ndarray) -> np.ndarray:
    """e^{iw} of the float grid w, flattened: from a bounded memo keyed by
    the grid's bytes, read-only, for grids of at most _UNIT_CIRCLE_MAX_N
    points, and computed afresh for larger ones."""
    w = w.ravel()
    if w.size > _UNIT_CIRCLE_MAX_N:
        return np.exp(1j * w)
    return _memo_unit_circle(w.tobytes())


def frequency_response(b: np.ndarray, a: np.ndarray,
                       omegas: np.ndarray) -> np.ndarray:
    """H(e^{iw}) = B(e^{iw}) / A(e^{iw}) in the shape of omegas, for b and
    a in ascending powers of z^-1 (entry n multiplies z^-n, as the filter
    runs them); b and a may differ in length.  They are evaluated in one
    Horner pass, on the unit-circle points of a memoized grid
    (``_unit_circle``)."""
    w = np.asarray(omegas, dtype=float)
    num, den = _horner((b, a), _unit_circle(w))
    return (num / den).reshape(w.shape)[()]


def ideal_response(k_t: int, q: float, t_s: float,
                   omegas: np.ndarray) -> np.ndarray:
    """Delayed ideal differentiator: e^{-iqw} (iw/T_s)^{k_t}."""
    w = np.asarray(omegas, dtype=float)
    return np.exp(-1j * q * w) * (1j * w / t_s) ** k_t


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


def _abs(x: np.ndarray) -> np.ndarray:
    """|x| as hypot(re, im), the rounding of Python's abs(complex)."""
    return np.hypot(x.real, x.imag)


@functools.cache
def _check_tables(width: int) -> tuple:
    """The factors of verify_constraints' n = width + 3 orders k, as
    columns: k + 1, (-1)^k and i^k; and the stencil weights of its n_fd
    finite-difference orders, their magnitudes and their scales h^k."""
    orders = np.arange(width + 3)[:, None]
    n_fd = min(FD_MAX_ORDER + 1, width)
    return (orders + 1, (-1.0) ** orders, 1j ** orders, n_fd,
            _FD_WEIGHTS[:n_fd].T, np.abs(_FD_WEIGHTS[:n_fd]).T,
            _FD_SCALES[:n_fd])


def verify_constraints(spec: DesignSpec,
                       design: FilterbankDesign) -> List[ConstraintCheck]:
    """Re-derive every design constraint two independent ways.

    The analytic path evaluates the basis-derivative expansion
    i^k sum_l alpha_{k,l} (-1)^l psi^{l+1} C, with psi the basis functions
    z / (z - p) of all poles at z = e^{i omega_d}; the finite-difference
    path probes the realized transfer function directly (orders 0..3).
    Both are compared to the constraint targets.  All constraint
    frequencies are checked in one pass for all outputs: one
    alpha_table(n) @ powers @ C product over the (blocks, n, K) stack of
    basis powers (n = the largest block count + 3) gives the analytic
    derivatives, one Horner pass over blocks x 5 stencil points the
    response samples, and one stencil-weight matrix the finite
    differences.  The report lists the checks by output, then block, then
    order.

    Each response sample carries relative rounding noise amplified by the
    evaluation condition number of the two polynomials (sum of absolute
    coefficients over the achieved value).  A stencil divides that noise by
    h^order; below the resulting scale an estimate carries no information.
    """
    blocks = constraint_blocks(spec)
    omegas = np.array([w_d for w_d, _ in blocks])
    width = max(count for _, count in blocks)
    powers, signs, units, n_fd, weights, abs_weights, scales = \
        _check_tables(width)
    # The stencil points around each omega_d; offset 0 is e^{i omega_d}.
    z = np.exp(1j * (omegas[:, None] + FD_STEP * _FD_OFFSETS))
    z_d = z[:, 2:3]
    gap = constraint_gap(z_d, design.poles)
    # Axes (output, block, order) from here on.
    analytic = (units * (alpha_table(width + 3)
                         @ ((z_d / gap)[:, None, :] ** powers * signs)
                         @ design.c)).transpose(2, 0, 1)
    target = np.zeros((spec.k_t, len(blocks), width), dtype=complex)
    for kt in range(spec.k_t):  # the dc block comes first
        target[kt, 0, :spec.k_w_dc] = dc_targets(design.q, design.t_s,
                                                 spec.k_w_dc, kt)
    scale = 1.0 + _abs(target)
    a_ok = _abs(analytic[..., :width] - target) <= 1e-6 * scale

    coeffs = np.concatenate((design.b, design.a[None]))
    vals = _horner(coeffs, z.ravel())  # every numerator and the denominator
    h = vals[:-1] / vals[-1]
    sums = np.abs(coeffs).sum(axis=1)
    noise = COEFF_EPS * (sums[:-1, None] + np.abs(h) * sums[-1]) \
        / np.abs(vals[-1])
    shape = (spec.k_t, len(blocks), len(_FD_OFFSETS))
    fd = (h.reshape(shape) @ weights) / scales
    fd_noise = (noise.reshape(shape) @ abs_weights) / scales
    # A second-order-accurate stencil carries truncation error
    # ~ h^2 |f^(k+2)| plus the rounding noise of the sampled responses;
    # neither is resolvable, so both enter the acceptance bound.  Order 0
    # samples the response itself and has no truncation error.
    trunc = FD_STEP ** 2 * _abs(analytic[..., 2:n_fd + 2])
    trunc[..., 0] = 0.0
    fd_ok = _abs(fd - target[..., :n_fd]) \
        <= FD_RTOL * scale[..., :n_fd] + trunc + 10.0 * fd_noise

    analytic, target = analytic.tolist(), target.tolist()
    a_ok, fd, fd_ok = a_ok.tolist(), fd.tolist(), fd_ok.tolist()
    make = ConstraintCheck._make
    report: List[ConstraintCheck] = []
    for kt in range(spec.k_t):
        for j, (w_d, count) in enumerate(blocks):
            t, an, ok = target[kt][j], analytic[kt][j], a_ok[kt][j]
            # No finite difference past order n_fd - 1.
            f = fd[kt][j] + [None] * (count - n_fd)
            f_ok = fd_ok[kt][j] + [True] * (count - n_fd)
            report += [make((w_d, kw, kt, t[kw], an[kw], f[kw], ok[kw],
                             f_ok[kw])) for kw in range(count)]
    return report


def measured_group_delay(b: np.ndarray, a: np.ndarray,
                         omegas: np.ndarray) -> np.ndarray:
    """-d(unwrapped phase)/dw by central differences on the given grid."""
    w = np.asarray(omegas, dtype=float)
    phase = np.unwrap(np.angle(frequency_response(b, a, w)))
    return -np.gradient(phase, w)


def check_orbit_rate(f_orb: float) -> None:
    """Turn rates in [0, 0.5) cycles/sample are the ones a sampled orbit
    represents without aliasing; any other value, NaN included, raises
    ValueError."""
    if not 0 <= f_orb < 0.5:
        raise ValueError("f_orb must lie in [0, 0.5) cycles/sample")


def check_orbit_radius(r_orb: float) -> None:
    """An orbit has a positive finite radius.  At zero or below the errors
    would describe another orbit than the one predicted, and NaN or an
    infinite radius has no steady state; any such value raises
    ValueError."""
    if not 0 < r_orb < np.inf:
        raise ValueError("r_orb must be a positive finite number")


def orbit_steady_state(design: FilterbankDesign, f_orb: float,
                       r_orb: float) -> OrbitError:
    """Steady-state error of the smoother tracking a circular orbit.

    A constant-rate orbit of radius r_orb at f_orb cycles/sample is a
    complex exponential, so the smoother output is H(w) times it with
    w = 2 pi f_orb (``response_orbit_error``).  f_orb must lie in
    [0, 0.5) cycles/sample and r_orb must be positive and finite;
    otherwise ValueError.
    """
    check_orbit_rate(f_orb)
    check_orbit_radius(r_orb)
    w = 2.0 * np.pi * f_orb
    h = design_response(design, np.array([w]), 0)[0]
    return response_orbit_error(h, w, design.q, r_orb)


def response_orbit_error(h: complex, w: float, q: float,
                         r_orb: float) -> OrbitError:
    """Orbit error of a smoother of delay q whose response at w is h.
    After removing the delay, the radial error is (|h| - 1) r_orb and the
    angular error is angle(h) + q w, wrapped to [-pi, pi)."""
    h = complex(h)
    eps_r = (abs(h) - 1.0) * r_orb
    if abs(h) < NULL_RADIUS_TOL:
        # At a response null the track collapses to the centre and the
        # angular error is the angle of a zero-length vector; report 0.
        eps_theta = 0.0
    else:
        eps_theta = float(np.angle(h)) + q * w
        eps_theta = float((eps_theta + np.pi) % (2.0 * np.pi) - np.pi)
    return OrbitError(eps_r=eps_r, eps_theta=eps_theta)
