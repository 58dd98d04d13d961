"""Frequency-domain analysis: responses, constraint verification, delay
measurement, and steady-state orbit error."""

import numpy as np
import pytest

from maxflat.analyze import (COEFF_EPS, FD_MAX_ORDER, FD_RTOL, FD_STEP,
                             NULL_RADIUS_TOL, design_response,
                             frequency_response, ideal_response,
                             measured_group_delay, noncausal_response,
                             orbit_steady_state, verify_constraints)
from maxflat.design import (DesignSpec, FilterbankDesign, NumericalError,
                            alpha_table, basis_derivative_column,
                            constraint_blocks, dc_targets, design_filterbank,
                            noncausal_design)
from maxflat.realize import run_filter


def test_frequency_response_examples():
    # Pure delay z^{-1}: b = [0, 1], a = [1, 0] -> e^{-iw}.
    w = np.linspace(0, np.pi, 33)
    h = frequency_response(np.array([0.0, 1.0]), np.array([1.0, 0.0]), w)
    assert np.allclose(h, np.exp(-1j * w), atol=1e-12)
    # One-pole: c z/(z - p).
    h = frequency_response(np.array([0.5, 0.0]), np.array([1.0, -0.5]), w)
    z = np.exp(1j * w)
    assert np.allclose(h, 0.5 * z / (z - 0.5), atol=1e-12)


def test_ideal_response_is_delayed_differentiator():
    w = np.linspace(0.01, 1.0, 16)
    q, t_s = 3.0, 0.1
    assert np.allclose(ideal_response(0, q, t_s, w), np.exp(-1j * q * w))
    assert np.allclose(ideal_response(2, q, t_s, w),
                       np.exp(-1j * q * w) * (1j * w / t_s) ** 2)


def test_bw1_constraints_verified(bw1_spec, bw1_design):
    report = verify_constraints(bw1_spec, bw1_design)
    # 9 constraints x 3 outputs.
    assert len(report) == 27
    assert all(c.analytic_ok for c in report)
    assert all(c.fd_ok for c in report)


def test_constraints_verified_away_from_optimum(bw1_spec, bw1_design):
    """Interpolation must hold at any delay, not just the optimal one, with
    one check per row of the constraint system (here also a spec with all
    four blocks: dc, -omega_nb, +omega_nb and pi)."""
    specs = [
        DesignSpec(f_s=bw1_spec.f_s, f_wb=bw1_spec.f_wb,
                   f_nb=bw1_spec.f_nb, k_w_dc=bw1_spec.k_w_dc,
                   k_w_nb=bw1_spec.k_w_nb, k_t=bw1_spec.k_t,
                   group_delay=bw1_design.q + 5.0),
        DesignSpec(f_s=500.0, f_wb=0.04, f_nb=0.1, k_w_dc=4, k_w_nb=1,
                   k_w_pi=2, k_t=2, group_delay=6.5),
    ]
    for spec in specs:
        d = design_filterbank(spec)
        report = verify_constraints(spec, d)
        assert all(c.analytic_ok and c.fd_ok for c in report)
        rows = [(w, k) for w, n in constraint_blocks(spec)
                for k in range(n)]
        assert [(c.omega_d, c.k_omega, c.k_t) for c in report] == \
            [(w, k, kt) for kt in range(spec.k_t) for w, k in rows]


# The constraint check as it was: one basis column per pole and two
# polyval calls per order, output and frequency.  It is the oracle of
# test_verify_constraints_matches_per_order_check.

_STENCILS_BY_OFFSET = {
    0: ([0], [1.0]),
    1: ([-1, 1], [-0.5, 0.5]),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
}


def _bank_derivative_per_pole(design, omega_d, k_t, n):
    cols = np.column_stack([basis_derivative_column(p, omega_d, n)
                            for p in design.poles])
    return cols @ design.c[:, k_t]


def _term_magnitude(design, omega_d, k_t, n):
    """Sum of the absolute terms of each derivative 0..n-1: the scale of
    its rounding error."""
    z = np.exp(1j * omega_d)
    psi = np.abs(z / (z - design.poles))
    powers = psi ** (np.arange(n)[:, None] + 1)
    return alpha_table(n) @ powers @ np.abs(design.c[:, k_t])


def _fd_derivative_per_order(design, omega_d, k_t, order):
    offsets, weights = _STENCILS_BY_OFFSET[order]
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
    # The weighted sum of |samples| is the scale of the estimate's own
    # rounding error.
    spread = float(np.dot(np.abs(weights), np.abs(vals))) / FD_STEP ** order
    return complex(est), scale, spread


def _verify_per_order(spec, design):
    """(check, analytic scale, fd scale) per row, in report order."""
    rows = []
    for kt in range(spec.k_t):
        targets_dc = dc_targets(design.q, design.t_s, spec.k_w_dc, kt)
        for w_d, count in constraint_blocks(spec):
            analytic = _bank_derivative_per_pole(design, w_d, kt, count + 3)
            magnitude = _term_magnitude(design, w_d, kt, count + 3)
            for kw in range(count):
                target = targets_dc[kw] if w_d == 0.0 else 0.0 + 0.0j
                scale = 1.0 + abs(target)
                a_ok = abs(analytic[kw] - target) <= 1e-6 * scale
                fd_val, fd_ok, spread = None, True, None
                if kw <= FD_MAX_ORDER:
                    fd_val, fd_noise, spread = _fd_derivative_per_order(
                        design, w_d, kt, kw)
                    trunc = FD_STEP ** 2 * abs(analytic[kw + 2]) if kw else 0.0
                    fd_ok = abs(fd_val - target) \
                        <= FD_RTOL * scale + trunc + 10.0 * fd_noise
                rows.append(((w_d, kw, kt, target, analytic[kw], fd_val,
                              a_ok, fd_ok), magnitude[kw], spread))
    return rows


@pytest.mark.filterwarnings("ignore::maxflat.design.IllConditionedSystem")
@pytest.mark.parametrize("k_w_dc", range(2, 9))
def test_verify_constraints_matches_per_order_check(k_w_dc):
    """Checking each constraint frequency once for all outputs gives the
    same flags in the same order as the per-order check, with every value
    within 1e-12 of the scale of its own rounding error: the sum of the
    absolute terms for the analytic derivative, of the absolute weighted
    samples for the finite difference."""
    checked = 0
    for knb in range(4):
        for kt in range(1, min(k_w_dc, 3) + 1):
            for q in ("optimal", 5.0):
                spec = DesignSpec(f_s=1000.0, f_wb=0.05,
                                  f_nb=0.07 if knb else None,
                                  k_w_dc=k_w_dc, k_w_nb=knb, k_t=kt,
                                  group_delay=q)
                try:
                    d = design_filterbank(spec)
                except ValueError:  # a grid spec the design rejects
                    continue
                report = verify_constraints(spec, d)
                expected = _verify_per_order(spec, d)
                assert len(report) == len(expected)
                for chk, (ref, magnitude, spread) in zip(report, expected):
                    got = (chk.omega_d, chk.k_omega, chk.k_t, chk.target,
                           chk.analytic, chk.fd_estimate, chk.analytic_ok,
                           chk.fd_ok)
                    assert got[:4] == ref[:4] and got[6:] == ref[6:], spec
                    assert abs(got[4] - ref[4]) <= 1e-12 * magnitude, spec
                    if ref[5] is None:
                        assert got[5] is None
                    else:
                        assert abs(got[5] - ref[5]) <= 1e-12 * spread, spec
                checked += 1
    assert checked


@pytest.mark.parametrize("block", range(4))
def test_verify_constraints_rejects_pole_at_constraint_frequency(block):
    """A hand-built design with a pole on the unit circle at one of the
    spec's constraint frequencies (dc, -omega_nb, +omega_nb, pi) has no
    basis evaluation there: NumericalError, not a check of inf or NaN."""
    spec = DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=3,
                      k_w_nb=1, k_w_pi=1, k_t=2, group_delay=4.0)
    d = design_filterbank(spec)
    w_d, _ = constraint_blocks(spec)[block]
    poles = d.poles.copy()
    poles[1] = np.exp(1j * w_d)
    bad = FilterbankDesign(poles=poles, c=d.c, q=d.q, sigma=d.sigma,
                           a=d.a, b=d.b, t_s=d.t_s)
    with pytest.raises(NumericalError, match="singular basis evaluation"):
        verify_constraints(spec, bad)


def test_response_conjugate_symmetry(bw1_design):
    """Real filters: H(-w) = conj(H(w))."""
    w = np.linspace(0.05, 3.0, 64)
    for kt in range(3):
        h_pos = design_response(bw1_design, w, kt)
        h_neg = design_response(bw1_design, -w, kt)
        assert np.allclose(h_neg, np.conj(h_pos), atol=1e-10)


def test_measured_group_delay_approaches_q_at_dc(bw1_design):
    """Maximal flatness pins the group delay to q in the dc limit."""
    w = np.linspace(1e-4, 5e-3, 64)
    gd = measured_group_delay(bw1_design.b[0], bw1_design.a, w)
    assert abs(gd[0] - bw1_design.q) < 1e-3
    assert abs(np.mean(gd) - bw1_design.q) < 0.05


def test_wng_equals_impulse_energy(bw1_design):
    """Parseval: the white-noise gain equals the impulse-response energy."""
    x = np.r_[1.0, np.zeros(8191)]
    for ka in range(3):
        for kb in range(3):
            ya = run_filter(bw1_design.b[ka], bw1_design.a, x)
            yb = run_filter(bw1_design.b[kb], bw1_design.a, x)
            e = float(np.dot(ya, yb))
            assert e == pytest.approx(bw1_design.sigma[ka, kb], rel=1e-6,
                                      abs=1e-9)


def test_smoother_error_rolls_off_cubically_at_dc(bw1_design):
    """Three dc flatness orders make |H - e^{-iqw}| shrink like w^3."""
    def err(w):
        h = design_response(bw1_design, np.array([w]), 0)
        d = ideal_response(0, bw1_design.q, bw1_design.t_s, np.array([w]))
        return float(np.abs(h - d)[0])

    ratio = err(0.01) / err(0.005)
    assert 6.0 < ratio < 10.0


def test_noncausal_response_is_real_and_zero_phase():
    spec = DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=4, k_w_nb=2,
                      k_t=1, group_delay=0.0, causal=False)
    fwd, bwd = noncausal_design(spec)
    w = np.linspace(0.0, np.pi, 257)
    h = noncausal_response(fwd, bwd, w)
    assert np.max(np.abs(h.imag)) < 1e-9
    assert h[0].real == pytest.approx(1.0, rel=1e-9)


def test_orbit_steady_state_dc_and_null(bw1_design):
    # f_orb = 0: perfect track.
    err = orbit_steady_state(bw1_design, 0.0, 5.0)
    assert err.eps_r == pytest.approx(0.0, abs=1e-9)
    assert err.eps_theta == pytest.approx(0.0, abs=1e-9)
    # At the narrowband null the track collapses to the centre.
    err = orbit_steady_state(bw1_design, 0.07, 5.0)
    assert err.eps_r == pytest.approx(-5.0, abs=1e-6)
    assert err.eps_theta == 0.0


def test_orbit_steady_state_scales_linearly(bw1_design):
    e1 = orbit_steady_state(bw1_design, 0.01, 1.0)
    e7 = orbit_steady_state(bw1_design, 0.01, 7.0)
    assert e7.eps_r == pytest.approx(7.0 * e1.eps_r, rel=1e-12)
    assert e7.eps_theta == pytest.approx(e1.eps_theta, rel=1e-12)


def test_orbit_rate_validation(bw1_design):
    with pytest.raises(ValueError, match="f_orb"):
        orbit_steady_state(bw1_design, 0.5, 1.0)
