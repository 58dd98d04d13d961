"""Frequency-domain analysis: responses, constraint verification, delay
measurement, and steady-state orbit error."""

import numpy as np
import pytest

from maxflat import analyze
from maxflat.analyze import (COEFF_EPS, FD_MAX_ORDER, FD_RTOL, FD_STEP,
                             NULL_RADIUS_TOL, ConstraintCheck,
                             design_response,
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


def _response_cases(bw1_design, tracker_designs):
    """(name, b, a) of every filter whose response a workload evaluates."""
    from maxflat.detector import bw0_reference, bw1_nc_smoother

    cases = [(f"BW1 output {kt}", b, bw1_design.a)
             for kt, b in enumerate(bw1_design.b)]
    cases += [(f"tracker {tag} output {kt}", b, d.a)
              for tag, d in tracker_designs.items()
              for kt, b in enumerate(d.b)]
    cases += [(f"bw0 causal={causal}", *bw0_reference(causal))
              for causal in (True, False)]
    cases += [(f"two-sided {half}", d.b[0], d.a)
              for half, d in zip(("forward", "backward"), bw1_nc_smoother())]
    cases.append(("b shorter than a", np.array([0.25, -0.5]), bw1_design.a))
    return cases


@pytest.mark.parametrize("grid", [None, 1, 2, 3, 255, 256, 2048])
def test_frequency_response_equals_polyval(bw1_design, tracker_designs,
                                           grid):
    """One Horner pass over b and a is np.polyval(b, z) / np.polyval(a, z)
    bit for bit, after the shorter of b and a is padded with trailing
    zeros (the z^-1 convention).  NumPy's complex multiply may round
    differently with the length of the array (vector loops and their
    remainders), so every grid length the package uses is checked, and a
    scalar omega."""
    omegas = 0.7 if grid is None else np.linspace(0.0, np.pi, grid)
    z = np.exp(1j * np.asarray(omegas))
    for name, b, a in _response_cases(bw1_design, tracker_designs):
        got = frequency_response(b, a, omegas)
        n = max(len(b), len(a))
        want = np.polyval(np.pad(b, (0, n - len(b))), z) \
            / np.polyval(np.pad(a, (0, n - len(a))), z)
        assert np.shape(got) == np.shape(want), name
        assert np.array_equal(np.atleast_1d(got).view(float),
                              np.atleast_1d(want).view(float)), name


def test_unequal_lengths_follow_the_z_inverse_convention():
    """b and a hold powers of z^-1, so a shorter row is padded with
    trailing zeros: b = [0, 0, 1] over a = [1] is a two-sample delay, and
    a = [1, -0.5] over b = [1] the one-pole 1 / (1 - 0.5 z^-1)."""
    w = np.linspace(0.0, np.pi, 33)
    z = np.exp(1j * w)
    h = frequency_response(np.array([0.0, 0.0, 1.0]), np.array([1.0]), w)
    assert np.allclose(h, z ** -2, atol=1e-12)
    h = frequency_response(np.array([1.0]), np.array([1.0, -0.5]), w)
    assert np.allclose(h, 1.0 / (1.0 - 0.5 / z), atol=1e-12)


@pytest.mark.parametrize("n_taps", [2, 5, 8, 31])
def test_symmetric_fir_group_delay_is_half_its_span(n_taps):
    """A symmetric N-tap FIR (a = [1]) has linear phase with group delay
    (N - 1) / 2 samples at every frequency of its main lobe."""
    b = np.hanning(n_taps + 2)[1:-1]
    w = np.linspace(0.01, 0.2, 40)
    gd = measured_group_delay(b, np.array([1.0]), w)
    assert np.allclose(gd, (n_taps - 1) / 2, rtol=0.0, atol=1e-9)


def test_unit_circle_memo_is_bounded_read_only_and_skips_large_grids():
    """Grids of at most _UNIT_CIRCLE_MAX_N points take e^{iw} from a memo
    of _UNIT_CIRCLE_MEMO_SIZE entries keyed by their bytes, read-only and
    equal to np.exp bit for bit; larger grids are computed afresh, and
    every response equals the one of an empty memo."""
    memo = analyze._memo_unit_circle
    memo.cache_clear()
    b, a = np.array([0.2, 0.3, 0.0]), np.array([1.0, -0.9, 0.2])
    grids = [np.linspace(0.0, np.pi, n) for n in (1, 2, 255, 256, 2048)]
    grids += [-grids[-1], np.linspace(0.0, np.pi, analyze._UNIT_CIRCLE_MAX_N)]
    for w in grids:
        want = np.exp(1j * w)
        z = analyze._unit_circle(w)
        assert np.array_equal(z.view(float), want.view(float))
        assert not z.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 0.0
        assert analyze._unit_circle(w.copy()) is z
        assert memo.cache_info().currsize <= analyze._UNIT_CIRCLE_MEMO_SIZE
        h = frequency_response(b, a, w)
        memo.cache_clear()
        assert np.array_equal(frequency_response(b, a, w).view(float),
                              h.view(float))
    info = memo.cache_info()
    big = np.linspace(0.0, np.pi, analyze._UNIT_CIRCLE_MAX_N + 1)
    z = analyze._unit_circle(big)
    assert z.flags.writeable
    assert np.array_equal(z.view(float), np.exp(1j * big).view(float))
    frequency_response(b, a, big)
    assert memo.cache_info() == info


def test_constraint_check_is_an_immutable_record(bw1_spec, bw1_design):
    """The record keeps its field names, their order and its values, and
    a field cannot be assigned."""
    fields = ("omega_d", "k_omega", "k_t", "target", "analytic",
              "fd_estimate", "analytic_ok", "fd_ok")
    assert ConstraintCheck._fields == fields
    values = (0.3, 1, 2, 1.5 + 0j, 1.5 - 1e-9j, None, True, False)
    check = ConstraintCheck(*values)
    assert tuple(getattr(check, name) for name in fields) == values
    for check in verify_constraints(bw1_spec, bw1_design):
        assert tuple(getattr(check, name) for name in fields) == \
            tuple(check)
        with pytest.raises(AttributeError):
            check.analytic_ok = False


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


# The constraint check as it was before it took e^{i omega_d} from the
# stencil points and built its per-order tables once per size: the oracle
# of test_verify_constraints_equals_its_oracle_bit_for_bit.

def _bank_derivatives_oracle(design, omegas, n):
    z = np.exp(1j * omegas)[:, None]
    psi = z / (z - design.poles)
    orders = np.arange(n)
    powers = psi[:, None, :] ** (orders[:, None] + 1) \
        * (-1.0) ** orders[:, None]
    return (1j ** orders)[:, None] * (alpha_table(n) @ powers @ design.c)


def _fd_samples_oracle(design, omegas):
    z = np.exp(1j * (omegas[:, None]
                     + FD_STEP * analyze._FD_OFFSETS)).ravel()
    coeffs = np.vstack(design.b + (design.a,))
    vals = analyze._horner(coeffs, z)
    a_val = vals[-1]
    h = vals[:-1] / a_val
    sums = np.sum(np.abs(coeffs), axis=1)
    noise = COEFF_EPS * (sums[:-1, None] + np.abs(h) * sums[-1]) \
        / np.abs(a_val)
    shape = (len(h), len(omegas), len(analyze._FD_OFFSETS))
    return h.reshape(shape), noise.reshape(shape)


def _verify_constraints_oracle(spec, design):
    _abs, weights = analyze._abs, analyze._FD_WEIGHTS
    blocks = constraint_blocks(spec)
    omegas = np.array([w_d for w_d, _ in blocks])
    width = max(count for _, count in blocks)
    analytic = _bank_derivatives_oracle(design, omegas,
                                        width + 3).transpose(2, 0, 1)
    target = np.zeros((spec.k_t, len(blocks), width), dtype=complex)
    for kt in range(spec.k_t):
        target[kt, omegas == 0.0, :spec.k_w_dc] = dc_targets(
            design.q, design.t_s, spec.k_w_dc, kt)
    scale = 1.0 + _abs(target)
    a_ok = _abs(analytic[..., :width] - target) <= 1e-6 * scale

    n_fd = min(FD_MAX_ORDER + 1, width)
    h, noise = _fd_samples_oracle(design, omegas)
    fd = (h @ weights[:n_fd].T) / analyze._FD_SCALES[:n_fd]
    fd_noise = (noise @ np.abs(weights[:n_fd]).T) / analyze._FD_SCALES[:n_fd]
    trunc = FD_STEP ** 2 * _abs(analytic[..., 2:n_fd + 2])
    trunc[..., 0] = 0.0
    fd_ok = _abs(fd - target[..., :n_fd]) \
        <= FD_RTOL * scale[..., :n_fd] + trunc + 10.0 * fd_noise

    analytic, target = analytic.tolist(), target.tolist()
    a_ok, fd, fd_ok = a_ok.tolist(), fd.tolist(), fd_ok.tolist()
    report = []
    for kt in range(spec.k_t):
        for j, (w_d, count) in enumerate(blocks):
            for kw in range(count):
                has_fd = kw < n_fd
                report.append(ConstraintCheck(
                    w_d, kw, kt, target[kt][j][kw], analytic[kt][j][kw],
                    fd[kt][j][kw] if has_fd else None, a_ok[kt][j][kw],
                    fd_ok[kt][j][kw] if has_fd else True))
    return report


def _bits(value):
    """A value's type and bits: floats and complex by their hex digits."""
    if isinstance(value, complex):
        return type(value), value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return type(value), value.hex()
    return type(value), value


@pytest.mark.filterwarnings("ignore::maxflat.design.IllConditionedSystem")
@pytest.mark.filterwarnings("ignore:delay-independent WNG")
def test_verify_constraints_equals_its_oracle_bit_for_bit(bench_workloads):
    """Every field of every check, on the causal design-sweep grid and the
    specs drawn for two seeds, has the type and bits of the oracle's."""
    wl = bench_workloads
    specs = [s for s in wl.grid_specs(False) if s.causal]
    for seed in (11, 12):
        specs += wl.drawn_specs(np.random.default_rng(seed), 200)
    checked = 0
    for spec in specs:
        try:
            d = design_filterbank(spec)
        except ValueError:  # a spec the design rejects
            continue
        report = verify_constraints(spec, d)
        expected = _verify_constraints_oracle(spec, d)
        assert len(report) == len(expected)
        for chk, ref in zip(report, expected):
            assert type(chk) is ConstraintCheck
            assert list(map(_bits, chk)) == list(map(_bits, ref)), spec
        checked += 1
    assert checked > 500


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
