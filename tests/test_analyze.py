"""Frequency-domain analysis: responses, constraint verification, delay
measurement, and steady-state orbit error."""

import numpy as np
import pytest

from maxflat.analyze import (NULL_RADIUS_TOL, complex_error, design_response,
                             frequency_response, ideal_response,
                             measured_group_delay, noncausal_response,
                             orbit_steady_state, verify_constraints)
from maxflat.design import (DesignSpec, assemble_system, design_filterbank,
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


def test_complex_error_is_error_magnitude():
    h = np.array([1.0 + 1.0j, 4.0 + 0.0j])
    ideal = np.array([1.0, 1.0])
    assert complex_error(h, ideal)[0] == pytest.approx(1.0)
    assert complex_error(h, ideal)[1] == pytest.approx(3.0)


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
        rows = [(w, k) for w, n in assemble_system(spec, d.poles)
                .constraint_freqs for k in range(n)]
        assert [(c.omega_d, c.k_omega, c.k_t) for c in report] == \
            [(w, k, kt) for kt in range(spec.k_t) for w, k in rows]


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
        return float(complex_error(h, d)[0])

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
