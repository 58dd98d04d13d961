"""State-space realizations: canonical forms, streaming, warm starts."""

import numpy as np
import pytest

from maxflat.design import DesignSpec, FilterbankDesign, design_filterbank
from maxflat.realize import (FilterState, initialize_state, lss_step,
                             run_filter, run_lss, run_noncausal, to_ccf,
                             to_dcf, to_dsf, zero_state)


def _first_order_design(p=0.5, c=0.5):
    sigma = abs(c) ** 2 / (1 - p * p) if abs(p) < 1 else np.inf
    return FilterbankDesign(
        poles=np.array([p + 0j]), c=np.array([[c + 0j]]), q=0.0,
        sigma=np.array([[sigma]]),
        a=np.array([1.0, -p]), b=(np.array([c, 0.0]),), t_s=1.0)


def test_first_order_impulse_response():
    """c z/(z - p): impulse response is c p^n for n >= 0."""
    d = _first_order_design()
    x = np.r_[1.0, np.zeros(19)]
    n = np.arange(20)
    expected = 0.5 * 0.5 ** n
    for make in (to_dcf, to_ccf, to_dsf):
        y = run_lss(make(d), x)[:, 0]
        assert np.allclose(y, expected, atol=1e-14), make.__name__
    assert np.allclose(run_filter(d.b[0], d.a, x), expected, atol=1e-14)


def test_canonical_form_shapes(bw1_design):
    d = bw1_design
    dcf, ccf, dsf = to_dcf(d), to_ccf(d), to_dsf(d)
    for r in (dcf, ccf, dsf):
        assert r.order == 9 and r.n_outputs == 3
        assert r.g.shape == (9, 9)
    assert not ccf.complex_arithmetic
    assert dcf.complex_arithmetic and dsf.complex_arithmetic
    # DCF is diagonal with the design poles.
    assert np.allclose(np.diag(dcf.g), d.poles)
    # CCF companion top row carries the denominator.
    assert np.allclose(ccf.g[0, :], -d.a[1:])
    # DSF reads the outputs directly off the leading states.
    assert np.allclose(dsf.c, np.eye(9)[:3, :])


def test_forms_agree_on_noise(bw1_design, rng):
    x = rng.normal(size=300)
    y_ref = np.column_stack([run_filter(bw1_design.b[k], bw1_design.a, x)
                             for k in range(3)])
    for make in (to_dcf, to_ccf, to_dsf):
        y = run_lss(make(bw1_design), x)
        scale = np.max(np.abs(y_ref), axis=0)
        assert np.max(np.abs(y - y_ref) / scale) < 1e-6, make.__name__


def test_initialize_state_first_order():
    """p = 0.5, c = 0.5, held input 2: w = (1 - 0.5)^{-1} * 1 * 2 = 4 and the
    output stays at c * w = 2 (unit dc gain)."""
    d = _first_order_design()
    dcf = to_dcf(d)
    st = initialize_state(dcf, 2.0)
    assert st.w[0] == pytest.approx(4.0)
    st2, y = lss_step(dcf, st, 2.0)
    assert y[0] == pytest.approx(2.0)


def test_initialize_state_matches_long_run(bw1_design):
    """The warm start must equal the state reached by streaming a long
    constant input from rest."""
    dcf = to_dcf(bw1_design)
    st_warm = initialize_state(dcf, 3.0)
    st = zero_state(dcf)
    for _ in range(3000):
        st, _y = lss_step(dcf, st, 3.0)
    assert np.allclose(st.w, st_warm.w, atol=1e-9)


def test_warm_start_holds_constant_output(bw1_design):
    dcf = to_dcf(bw1_design)
    st = initialize_state(dcf, 3.0)
    y = run_lss(dcf, np.full(50, 3.0), state=st)
    # Smoother output pinned at the input level; derivative outputs at 0.
    assert np.allclose(y[:, 0], 3.0, atol=1e-9)
    assert np.allclose(y[:, 1:], 0.0, atol=1e-7)


def test_dsf_warm_start_settles_to_input_level(bw1_design):
    """The DSF warm start seeds only the smoother state, so the output may
    move transiently but must settle back to the held level."""
    dsf = to_dsf(bw1_design)
    st = initialize_state(dsf, 5.0)
    y = run_lss(dsf, np.full(2000, 5.0), state=st)
    assert y[0, 0] == pytest.approx(5.0, rel=0.2)
    assert y[-1, 0] == pytest.approx(5.0, abs=1e-8)


def test_initialize_state_rejects_pole_at_one():
    d = _first_order_design(p=1.0, c=1.0)
    with pytest.raises(ValueError, match="no steady state"):
        initialize_state(to_dcf(d), 1.0)


def test_bibo_stability_tail(bw1_design):
    x = np.r_[1.0, np.zeros(9999)]
    y = run_filter(bw1_design.b[0], bw1_design.a, x)
    assert np.max(np.abs(y[-100:])) < 1e-12


def test_run_filter_requires_monic_denominator():
    with pytest.raises(ValueError, match="monic"):
        run_filter(np.array([1.0]), np.array([2.0, 1.0]), np.zeros(4))


def test_run_noncausal_matches_two_sided_convolution():
    """Split-design filtering must equal direct convolution with the
    two-sided impulse response (forward kernel + anticausal kernel)."""
    from maxflat.design import noncausal_design
    spec = DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=4, k_w_nb=2,
                      k_t=1, group_delay=0.0, causal=False)
    fwd, bwd = noncausal_design(spec)
    rng = np.random.default_rng(7)
    x = rng.normal(size=400)
    y = run_noncausal(fwd, bwd, x)

    # Oracle: materialize h[n] for n in [-L, L] from the partial fractions
    # (forward: c p^n for n >= 0; backward: -c r^{-n} ... i.e. the stored
    # stable form run on reversed time) and convolve directly.
    L = 200
    n = np.arange(0, L + 1)
    h_pos = np.real(sum(c * p ** n for c, p in zip(fwd.c[:, 0], fwd.poles)))
    imp = np.r_[np.zeros(L), 1.0, np.zeros(L)]
    y_b = run_filter(bwd.b[0], bwd.a, imp[::-1])[::-1]
    h = np.r_[y_b[:L], y_b[L] + h_pos[0], h_pos[1:]]
    y_ref = np.convolve(np.r_[np.zeros(L), x], h, mode="full")[2 * L:2 * L
                                                               + len(x)]
    assert np.max(np.abs(y - y_ref)) < 1e-10 * max(1.0, np.max(np.abs(y)))


def test_run_filter_rows_equal_one_dimensional_calls(bw1_design, rng):
    """A 2-D input is filtered along its last axis, row by row."""
    x = rng.normal(size=(3, 1000))
    y = run_filter(bw1_design.b[2], bw1_design.a, x)
    assert y.shape == x.shape
    for row, x_row in zip(y, x):
        assert np.array_equal(row,
                              run_filter(bw1_design.b[2], bw1_design.a, x_row))
