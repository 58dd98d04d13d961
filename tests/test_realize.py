"""Realizations: canonical state-space forms run from rest, direct-form
and two-sided filtering."""

import importlib
import pkgutil
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

import maxflat
from maxflat.design import DesignSpec, FilterbankDesign
from maxflat.detector import bw1_nc_smoother
from maxflat.realize import (run_bank, run_filter, run_lss, run_noncausal,
                             to_ccf, to_dcf, to_dsf)


def _first_order_design(p=0.5, c=0.5):
    sigma = abs(c) ** 2 / (1 - p * p) if abs(p) < 1 else np.inf
    return FilterbankDesign(
        poles=np.array([p + 0j]), c=np.array([[c + 0j]]), q=0.0,
        sigma=np.array([[sigma]]),
        a=np.array([1.0, -p]), b=np.array([[c, 0.0]]), t_s=1.0)


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


def test_run_lss_rejects_non_real_dsf_output():
    """Every complex form, DSF included, must give real output from rest;
    a C whose imaginary part is not conjugate-symmetric does not."""
    dsf = to_dsf(_first_order_design())
    with pytest.raises(ValueError, match="non-real output"):
        run_lss(replace(dsf, c=dsf.c + 1j), np.r_[1.0, np.zeros(9)])


def test_lfilter_is_bound_only_in_realize():
    """realize.run_filter is the one direct-form filtering engine: only
    realize binds the compiled kernel of lfilter, and no module binds
    lfilter itself."""
    kernel = sys.modules["scipy.signal._sigtools"]._linear_filter
    binders = {}
    for info in pkgutil.iter_modules(maxflat.__path__):
        module = importlib.import_module(f"maxflat.{info.name}")
        bound = [v for v in vars(module).values()
                 if v is kernel or v is lfilter]
        if bound:
            binders[info.name] = bound
    assert binders == {"realize": [kernel]}


def test_kernel_module_is_the_one_scipy_signal_imports():
    """The kernel is loaded under its own name, so scipy.signal, imported
    after it, reuses the same module instead of loading a second copy."""
    import scipy.signal._sigtools as sigtools
    assert sys.modules["scipy.signal._sigtools"] is sigtools
    assert maxflat.realize._linear_filter is sigtools._linear_filter


_X = np.random.default_rng(3).normal(size=(3, 500))


@pytest.mark.parametrize("x, a0", [
    pytest.param(_X[0], 1.0, id="1-D"),
    pytest.param(_X, 1.0, id="2-D rows"),
    pytest.param(_X[..., ::-1], 1.0, id="reversed view"),
    pytest.param(np.arange(-250, 250) % 7 - 3, 1.0, id="integer input"),
    pytest.param(_X, 1.0 + 5e-13, id="a0 off 1 by 5e-13"),
])
def test_run_filter_equals_lfilter_bit_for_bit(bw1_design, x, a0):
    """run_filter makes lfilter's own kernel call, so every output is
    bit-identical, also for the reversed views the two-sided detectors
    pass and for a denominator that is monic only to run_filter's 1e-12."""
    b, a = bw1_design.b[2], np.r_[a0, bw1_design.a[1:]]
    y = run_filter(b, a, x)
    assert y.dtype == np.float64
    assert np.array_equal(y, lfilter(b, a, x))


def test_bibo_stability_tail(bw1_design):
    x = np.r_[1.0, np.zeros(9999)]
    y = run_filter(bw1_design.b[0], bw1_design.a, x)
    assert np.max(np.abs(y[-100:])) < 1e-12


def test_run_filter_requires_monic_denominator():
    with pytest.raises(ValueError, match="monic"):
        run_filter(np.array([1.0]), np.array([2.0, 1.0]), np.zeros(4))


@pytest.mark.parametrize("b, a", [
    pytest.param(np.array([]), np.r_[1.0, -0.5], id="empty b"),
    pytest.param(np.r_[0.5, 0.0], np.array([]), id="empty a"),
    pytest.param(np.ones((2, 2)), np.r_[1.0, -0.5], id="2-D b"),
])
def test_run_filter_rejects_what_lfilter_rejects(b, a):
    """The kernel checks neither coefficient array, so run_filter raises
    lfilter's ValueError itself."""
    x = np.ones(5)
    with pytest.raises(ValueError) as expected:
        lfilter(b, a, x)
    with pytest.raises(ValueError) as got:
        run_filter(b, a, x)
    assert str(got.value) == str(expected.value)


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
    # of both halves, not their b/a (forward: h[n] = sum c p^n for n >= 0;
    # backward: h[-m] = sum c r^(m-1) for m >= 1), and convolve directly.
    L = 200
    n = np.arange(0, L + 1)
    h_pos = np.real(sum(c * p ** n for c, p in zip(fwd.c[:, 0], fwd.poles)))
    m = np.arange(L, 0, -1)
    h_neg = np.real(sum(c * r ** (m - 1)
                        for c, r in zip(bwd.c[:, 0], bwd.poles)))
    h = np.r_[h_neg, h_pos]
    y_ref = np.convolve(np.r_[np.zeros(L), x], h, mode="full")[2 * L:2 * L
                                                               + len(x)]
    assert np.max(np.abs(y - y_ref)) < 1e-10 * max(1.0, np.max(np.abs(y)))


@pytest.mark.parametrize("span", [(0, 0), (0, 398), (0, 399), (1, 399),
                                  (150, 260), (399, 399)])
def test_run_noncausal_span_equals_full_output(span):
    """A span of the output is that span of the whole rows' output, bit
    for bit."""
    from maxflat.design import noncausal_design
    spec = DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=4, k_w_nb=2,
                      k_t=1, group_delay=0.0, causal=False)
    fwd, bwd = noncausal_design(spec)
    x = np.random.default_rng(8).normal(size=(3, 400))
    first, last = span
    full = run_noncausal(fwd, bwd, x)[..., first:last + 1]
    assert np.array_equal(run_noncausal(fwd, bwd, x, span=span), full)
    assert np.array_equal(run_noncausal(fwd, bwd, x[1], span=span), full[1])


def test_run_filter_rows_equal_one_dimensional_calls(bw1_design, rng):
    """A 2-D input is filtered along its last axis, row by row."""
    x = rng.normal(size=(3, 1000))
    y = run_filter(bw1_design.b[2], bw1_design.a, x)
    assert y.shape == x.shape
    for row, x_row in zip(y, x):
        assert np.array_equal(row,
                              run_filter(bw1_design.b[2], bw1_design.a, x_row))


@pytest.mark.parametrize("span", [(0, 1000), (0, 2000), (-5, 10), (5, 2)])
def test_run_noncausal_span_must_lie_within_the_row(span):
    """A span past the row end, one that starts before sample 0 and one
    that ends before it starts raise ValueError, rather than return a
    clipped or negative-index slice or fail in NumPy's broadcasting."""
    fwd, bwd = bw1_nc_smoother()
    x = np.random.default_rng(9).normal(size=(2, 1000))
    with pytest.raises(ValueError, match="does not lie within the 1000 "):
        run_noncausal(fwd, bwd, x, span=span)


# ---------------------------------------------------------------------------
# run_bank: one shared all-pole pass, then every numerator


@pytest.fixture(scope="module")
def banks(bw1_design, tracker_designs):
    """BW1, trackers A-D and both halves of the two-sided smoother."""
    fwd, bwd = bw1_nc_smoother()
    return {"BW1": bw1_design, "NC forward": fwd, "NC backward": bwd,
            **{f"tracker {tag}": d for tag, d in tracker_designs.items()}}


BANKS = ["BW1", "NC forward", "NC backward"] + [f"tracker {tag}"
                                                for tag in "ABCD"]


@pytest.mark.parametrize("rows", [(), (3,)], ids=["1-D", "2-D"])
@pytest.mark.parametrize("name", BANKS)
def test_run_bank_equals_per_output_run_filter(banks, name, rows):
    """Every output agrees with its own direct-form recursion within 1e-9
    of the row's peak, from samples 0, 1, K - 1 and n - 1 on."""
    d = banks[name]
    x = np.random.default_rng(10).normal(size=rows + (400,))
    want = np.stack([run_filter(b, d.a, x) for b in d.b])
    peak = np.max(np.abs(want), axis=-1, keepdims=True)
    for first in (0, 1, d.order - 1, 399):
        got = run_bank(d, x, first)
        assert got.shape == (d.n_outputs,) + rows + (400 - first,)
        assert np.all(np.abs(got - want[..., first:]) <= 1e-9 * peak), first


@pytest.mark.parametrize("name", BANKS)
def test_run_bank_window_equals_whole_rows(banks, name):
    """A window's samples are bit for bit those of the whole rows, also a
    single sample of a single row, whose product would be a gemv."""
    d = banks[name]
    x = np.random.default_rng(11).normal(size=(4, 300))
    for rows in (x, x[:1], x[2]):
        full = run_bank(d, rows)
        for lo, hi in ((0, 0), (1, 1), (5, 5), (299, 299), (0, 298),
                       (7, 120), (100, 299)):
            assert np.array_equal(run_bank(d, rows[..., :hi + 1], lo),
                                  full[..., lo:hi + 1]), (lo, hi, rows.shape)


def _df2t_longdouble(b, a, x):
    """Transposed direct form II in long double, one sample at a time,
    over the rows of x."""
    b, a, x = (np.asarray(v, dtype=np.longdouble) for v in (b, a, x))
    z = np.zeros(x.shape[:-1] + (len(a) - 1,), dtype=np.longdouble)
    y = np.empty_like(x)
    for n in range(x.shape[-1]):
        y[..., n] = b[0] * x[..., n] + z[..., 0]
        z[..., :-1] = z[..., 1:]
        z[..., -1] = 0.0
        z += b[1:] * x[..., n, None] - a[1:] * y[..., n, None]
    return y


def test_run_bank_error_is_at_most_per_output_error(bw1_design):
    """Against a long-double recursion of the same coefficients, the shared
    pole pass is no less accurate than one recursion per output (seed 0,
    relative to each row's peak: 3.4e-10 against 4.3e-10)."""
    from maxflat.detector import _simulate_block
    x = _simulate_block(0, 0, 16, True)
    d = bw1_design
    bank = run_bank(d, x)
    err_bank = err_each = 0.0
    for k, b in enumerate(d.b):
        ref = _df2t_longdouble(b, d.a, x)
        peak = np.max(np.abs(ref), axis=-1, keepdims=True)
        err_bank = max(err_bank, float(np.max(np.abs(bank[k] - ref) / peak)))
        err_each = max(err_each, float(np.max(
            np.abs(run_filter(b, d.a, x) - ref) / peak)))
    assert err_bank <= err_each < 1e-9


@pytest.mark.parametrize("rows", [(), (3,)], ids=["1-D", "2-D"])
def test_run_bank_all_zero_and_one_output_banks(banks, rows):
    """A bank whose numerators are all zero, which has no taps, gives
    zeros; a one-output bank gives its output; both in the documented
    (K_t,) + rows + (n - first,) shape."""
    x = np.random.default_rng(12).normal(size=rows + (60,))
    one = banks["NC forward"]
    want = run_filter(one.b[0], one.a, x)
    peak = np.max(np.abs(want), axis=-1, keepdims=True)
    for first in (0, 1, 59):
        shape = rows + (60 - first,)
        got = run_bank(one, x, first)
        assert got.shape == (1,) + shape
        assert np.all(np.abs(got[0] - want[..., first:]) <= 1e-9 * peak)
        for d in (banks["BW1"], one):
            zero = replace(d, b=np.zeros_like(d.b))
            got = run_bank(zero, x, first)
            assert got.shape == (d.n_outputs,) + shape and not got.any()


@pytest.mark.parametrize("first", [-1, 300, 301])
def test_run_bank_first_must_lie_within_the_row(bw1_design, first):
    x = np.zeros((2, 300))
    with pytest.raises(ValueError, match="does not lie within the 300 "):
        run_bank(bw1_design, x, first)
