"""Core design machinery: constraint assembly, delay optimization, transfer
coefficients, and the non-causal split."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from maxflat import cli
from maxflat import design as design_module
from maxflat.butter import causal_z_poles, full_z_poles
from maxflat.design import (ConstraintBasis, DesignSpec, NumericalError,
                            IllConditionedSystem, alpha_table,
                            assemble_system, basis_derivative_column,
                            constraint_basis, dc_targets, design_filterbank,
                            gram_matrix, noncausal_design,
                            solve_coefficients, transfer_coefficients,
                            white_noise_gain, wng_polynomial)

# ---------------------------------------------------------------------------
# Spec validation


def test_spec_validation_messages():
    with pytest.raises(ValueError, match="K_w_dc >= K_t violated"):
        DesignSpec(f_s=1.0, f_wb=0.1, k_w_dc=1, k_t=2)
    with pytest.raises(ValueError, match="F_nb > F_wb violated"):
        DesignSpec(f_s=1.0, f_wb=0.1, f_nb=0.05, k_w_dc=2, k_w_nb=1, k_t=1)
    with pytest.raises(ValueError, match="f_nb required"):
        DesignSpec(f_s=1.0, f_wb=0.1, k_w_dc=2, k_w_nb=1, k_t=1)
    with pytest.raises(ValueError, match="f_wb must lie"):
        DesignSpec(f_s=1.0, f_wb=0.6, k_w_dc=2, k_t=1)
    with pytest.raises(ValueError, match='"optimal"'):
        DesignSpec(f_s=1.0, f_wb=0.1, k_w_dc=2, k_t=1, group_delay="best")
    spec = DesignSpec(f_s=10.0, f_wb=0.05, f_nb=0.07, k_w_dc=3, k_w_nb=1,
                      k_w_pi=1, k_t=2)
    assert spec.total_constraints == 3 + 2 * 1 + 1
    assert spec.t_s == pytest.approx(0.1)
    assert spec.omega_wb == pytest.approx(2 * np.pi * 0.05)


@pytest.mark.parametrize("field, value, message", [
    ("group_delay", float("nan"), "group_delay must be a finite number"),
    ("group_delay", float("inf"), "group_delay must be a finite number"),
    ("f_s", float("nan"), "F_s must be a finite number"),
    ("f_s", float("inf"), "F_s must be a finite number"),
    ("f_s", "1000", "F_s must be a finite number"),
    ("f_nb", float("nan"), "f_nb must be a finite number"),
    ("k_t", 2.5, "K_t must be an integer"),
    ("k_w_dc", 3.0, "K_w_dc must be an integer"),
    ("k_w_nb", None, "K_w_nb must be an integer"),
    ("k_w_dc", True, "K_w_dc must be an integer"),
    ("f_s", True, "F_s must be a finite number"),
    ("f_nb", False, "f_nb must be a finite number"),
    ("group_delay", True, "group_delay must be a finite number"),
    ("causal", "no", "causal must be a bool"),
    ("causal", 0, "causal must be a bool"),
])
def test_spec_rejects_non_finite_and_non_integral_values(field, value,
                                                         message):
    """Such specs used to give NaN coefficients, a LinAlgError or a
    TypeError instead of a validation error; booleans were taken as 0 and
    1, and any value as the causal flag."""
    kwargs = dict(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=3, k_w_nb=1,
                  k_t=2, group_delay=5.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=message):
        DesignSpec(**kwargs)


# ---------------------------------------------------------------------------
# Derivative-expansion table and basis columns


def test_alpha_table_values():
    alp = alpha_table(4)
    # First column all ones; diagonal k!.
    assert np.array_equal(alp[:, 0], [1, 1, 1, 1])
    assert np.array_equal(np.diag(alp), [1, 1, 2, 6])
    # Recursion spot check: alpha_{2,1} = 1*alpha_{1,0} + 2*alpha_{1,1} = 3.
    assert alp[2, 1] == 3
    assert alp[3, 1] == 1 * alp[2, 0] + 2 * alp[2, 1]
    assert alp[3, 2] == 2 * alp[2, 1] + 3 * alp[2, 2]
    # Strictly lower-triangular beyond the diagonal.
    assert alp[0, 1] == 0 and alp[1, 2] == 0 and alp[2, 3] == 0


def _alpha_table_int64(K):
    """The table as it was built before: the recursion in int64, which
    is exact up to K = 19 and wraps from K = 20 on."""
    alp = np.zeros((K, K), dtype=np.int64)
    for kw in range(K):
        for lw in range(kw + 1):
            if lw == 0:
                alp[kw, lw] = 1
            elif lw == kw:
                alp[kw, lw] = math.factorial(lw)
            else:
                alp[kw, lw] = (lw * alp[kw - 1, lw - 1]
                               + (lw + 1) * alp[kw - 1, lw])
    return alp


def _stirling2(n, k):
    """Stirling number of the second kind, exact."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n
               for j in range(k + 1)) // math.factorial(k)


def test_alpha_table_exact_at_high_order():
    """alpha_{k,l} = l! S(k+1, l+1), each entry correctly rounded to
    float64, at K = 25, where int64 would have wrapped (K = 20, 21) or
    raised OverflowError (K >= 22)."""
    K = 25
    exact = np.array([[float(math.factorial(lw) * _stirling2(kw + 1, lw + 1))
                       for lw in range(K)] for kw in range(K)])
    alp = alpha_table(K)
    assert alp.dtype == np.float64
    assert np.array_equal(alp, exact)


def test_alpha_table_unchanged_where_int64_was_exact():
    for K in range(1, 20):
        assert np.array_equal(alpha_table(K),
                              _alpha_table_int64(K).astype(float)), K


def test_alpha_table_is_read_only_and_nested():
    """Each table is built once and shared, so it must not be writable;
    row k does not depend on K, so a smaller table is a corner of a
    larger one."""
    K = 12
    alp = alpha_table(K)
    assert not alp.flags.writeable
    with pytest.raises(ValueError):
        alp[0, 0] = 2.0
    assert alpha_table(K) is alp
    for n in range(1, K + 1):
        assert np.array_equal(alp[:n, :n], alpha_table(n)), n


@pytest.mark.parametrize("p", [0.3 + 0.0j, 0.6 + 0.5j, -0.2 + 0.8j])
@pytest.mark.parametrize("omega", [0.0, 0.7, np.pi])
def test_basis_derivatives_match_finite_differences(p, omega):
    """The closed-form frequency derivatives of e^{iw}/(e^{iw}-p) must agree
    with high-order central differences of a direct evaluation."""
    K = 4
    col = basis_derivative_column([p], omega, K)[:, 0]
    f = lambda w: np.exp(1j * w) / (np.exp(1j * w) - p)
    h = 1e-3
    assert col[0] == pytest.approx(f(omega), rel=1e-12)
    # 4th-order-accurate central stencils.
    d1 = (f(omega - 2 * h) - 8 * f(omega - h) + 8 * f(omega + h)
          - f(omega + 2 * h)) / (12 * h)
    d2 = (-f(omega - 2 * h) + 16 * f(omega - h) - 30 * f(omega)
          + 16 * f(omega + h) - f(omega + 2 * h)) / (12 * h * h)
    assert col[1] == pytest.approx(d1, rel=1e-6, abs=1e-8)
    assert col[2] == pytest.approx(d2, rel=1e-5, abs=1e-6)


def test_basis_evaluation_singular_on_unit_circle_pole():
    with pytest.raises(ValueError, match="singular basis evaluation"):
        basis_derivative_column([np.exp(0.4j)], 0.4, 3)


# ---------------------------------------------------------------------------
# Constraint targets and system assembly


def test_dc_targets_examples():
    # Smoother (k_t = 0): 1, -iq, -q^2 (from i^2 (-q)^2 ... times 2!/2!).
    t = dc_targets(q=2.0, t_s=1.0, k_w_dc=3, k_t=0)
    assert t[0] == pytest.approx(1.0)
    assert t[1] == pytest.approx(-2.0j)
    assert t[2] == pytest.approx(-4.0)
    # First derivative (k_t = 1): zero below order 1, then i/T_s.
    t = dc_targets(q=2.0, t_s=0.5, k_w_dc=3, k_t=1)
    assert t[0] == 0.0
    assert t[1] == pytest.approx(2.0j)          # i * (1/T_s)
    assert t[2] == pytest.approx(2.0 * (-2.0) * (-1.0) * 2.0)  # i^2(-q)(1/Ts)2!
    with pytest.raises(ValueError):
        dc_targets(q=0.0, t_s=1.0, k_w_dc=2, k_t=2)


@pytest.mark.parametrize("q, real_signs", [
    (0.0, [0, 0, 0, 0, 1]), (-0.0, [0, 0, 1, 0, 0]),
    (1e-300, [0, 0, 0, 0, 1]), (-1e-300, [0, 0, 1, 0, 0]),
], ids=["zero", "negative-zero", "tiny", "negative-tiny"])
def test_dc_targets_signed_zeros_and_underflow(q, real_signs):
    """The entries below k_t are +0, and a zero or tiny delay gives
    targets that are zero or underflow to zero, without an error, signed
    as i^k_w (-q)^(k_w-k_t) is in Python's scalar arithmetic."""
    d = dc_targets(q, 0.5, 5, 1)
    assert list(d) == [0.0, 2.0j, 4.0 * q, 0.0, 0.0]
    assert list(np.signbit(d.real)) == [bool(s) for s in real_signs]
    assert not np.signbit(d.imag).any()


@pytest.mark.parametrize("q, t_s, k_t", [(1e200, 1.0, 0),
                                         (2.0, 1e-200, 2)])
def test_dc_targets_overflow_raises_numerical_error(q, t_s, k_t):
    """(-q)^k_w or (1/T_s)^k_t out of range raises NumericalError."""
    with pytest.raises(NumericalError, match="dc constraint target .* "
                       "overflows at q = "):
        dc_targets(q, t_s, 3, k_t)


def test_first_order_smoother_coefficient():
    """K = 1, q = 0: the single dc constraint H(0) = 1 forces c = 1 - p."""
    spec = DesignSpec(f_s=1.0, f_wb=0.05, k_w_dc=1, k_t=1, group_delay=0.0)
    d = design_filterbank(spec)
    p = d.poles[0]
    assert d.c[0, 0] == pytest.approx(1.0 - p, rel=1e-12)
    assert abs(sum(d.c[:, 0] / (1.0 - d.poles))) == pytest.approx(1.0)


def test_narrowband_rows_are_conjugate_pairs():
    """For real poles the -omega_nb and +omega_nb row blocks are complex
    conjugates, which is what makes the solution real-representable."""
    spec = DesignSpec(f_s=1.0, f_wb=0.05, f_nb=0.1, k_w_dc=2, k_w_nb=2,
                      k_t=1, group_delay=0.0)
    poles = causal_z_poles(spec.total_constraints, spec.omega_wb * spec.f_s,
                           spec.t_s)
    system = assemble_system(spec, poles)
    psi = system.psi
    # Rows 2,3 are -w_nb orders 0,1; rows 4,5 are +w_nb. Conjugation maps
    # the order-k entry at (-w, p) to (-1)^k times the entry at (w, conj p);
    # match columns by conjugate pole.
    signs = np.array([1.0, -1.0])
    for k, p in enumerate(poles):
        k_conj = int(np.argmin(np.abs(poles - np.conj(p))))
        assert np.allclose(np.conj(psi[2:4, k]), signs * psi[4:6, k_conj],
                           atol=1e-10)


def test_degenerate_narrowband_frequency_rejected():
    spec = DesignSpec(f_s=1.0, f_wb=0.3, f_nb=float(np.nextafter(0.5, 0.0)),
                      k_w_dc=2, k_w_nb=1, k_t=1, group_delay=0.0)
    poles = causal_z_poles(4, spec.omega_wb * spec.f_s, spec.t_s)
    with pytest.raises(ValueError, match="degenerate narrowband frequency"):
        assemble_system(spec, poles)


def _basis_column_all_rows(p, omega_d, K):
    """The basis column as assembly built it before: all K orders, from
    the table of K, to be sliced to the block's count afterwards."""
    z = np.exp(1j * omega_d)
    alp = alpha_table(K)
    psi = z / (z - p)
    psi_pows = psi ** np.arange(1, K + 1) * (-1.0) ** np.arange(K)
    out = np.empty(K, dtype=complex)
    for kw in range(K):
        out[kw] = (1j) ** kw * np.dot(alp[kw, :kw + 1], psi_pows[:kw + 1])
    return out


def _grid_specs(k_w_dc):
    """The design-sweep grid at one K_w_dc: K_w_nb 0-3, K_t 1-3."""
    return [DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07 if knb else None,
                       k_w_dc=k_w_dc, k_w_nb=knb, k_t=kt, group_delay=5.0)
            for knb in range(4) for kt in range(1, min(k_w_dc, 3) + 1)]


@pytest.mark.filterwarnings("ignore::maxflat.design.IllConditionedSystem")
@pytest.mark.parametrize("k_w_dc", range(2, 9))
def test_assembly_bit_identical_to_full_columns(k_w_dc):
    """Assembling each block from count-row columns gives exactly the Psi
    of K-row columns sliced to the count.  Psi is the input of every
    design, and a differently rounded build (one alpha @ powers product)
    moves the optimal delay of the worst-conditioned specs by more than
    1e-6 relative."""
    for spec in _grid_specs(k_w_dc):
        K = spec.total_constraints
        poles = causal_z_poles(K, spec.omega_wb * spec.f_s, spec.t_s)
        blocks = design_module.constraint_blocks(spec)
        expected = np.vstack([
            np.column_stack([_basis_column_all_rows(p, w_d, K)[:count]
                             for p in poles])
            for w_d, count in blocks])
        assert np.array_equal(assemble_system(spec, poles).psi, expected), \
            spec


def test_pole_count_mismatch_rejected():
    spec = DesignSpec(f_s=1.0, f_wb=0.05, k_w_dc=2, k_t=1, group_delay=0.0)
    with pytest.raises(ValueError, match="pole count"):
        assemble_system(spec, np.array([0.5, 0.6, 0.7]))


# ---------------------------------------------------------------------------
# Gram matrix


def test_gram_matrix_closed_form_cases():
    assert gram_matrix(np.array([0.0 + 0j]))[0, 0] == pytest.approx(1.0)
    assert gram_matrix(np.array([0.5 + 0j]))[0, 0] == pytest.approx(4.0 / 3.0)


def test_gram_matrix_matches_truncated_series(rng):
    poles = 0.9 * rng.uniform(0.1, 1.0, 4) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, 4))
    s = gram_matrix(poles)
    n = np.arange(20000)
    brute = np.empty((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            brute[a, b] = np.sum((np.conj(poles[a]) * poles[b]) ** n)
    assert np.allclose(s, brute, atol=1e-10)


def test_gram_matrix_rejects_unstable_poles():
    with pytest.raises(ValueError, match="non-causal"):
        gram_matrix(np.array([0.5, 1.2 + 0j]))


# ---------------------------------------------------------------------------
# White-noise gain and optimal delay


def test_wng_polynomial_consistent_with_direct_solves(bw1_spec):
    """Sigma(q) evaluated from the polynomial must match a from-scratch
    design at several fixed delays."""
    spec = bw1_spec
    sigma_poly, _ = wng_polynomial(constraint_basis(spec), k_t=0)
    for q in (0.0, 5.0, 12.0, 20.0):
        fixed = DesignSpec(f_s=spec.f_s, f_wb=spec.f_wb, f_nb=spec.f_nb,
                           k_w_dc=spec.k_w_dc, k_w_nb=spec.k_w_nb,
                           k_t=spec.k_t, group_delay=q)
        d = design_filterbank(fixed)
        poly_val = float(np.polynomial.polynomial.polyval(q, sigma_poly))
        assert d.sigma[0, 0] == pytest.approx(poly_val, rel=1e-9)


def test_wng_polynomial_degree():
    """Sigma(q) is a polynomial of degree 2 (K_w_dc - 1) in the delay."""
    spec = DesignSpec(f_s=1.0, f_wb=0.05, f_nb=0.08, k_w_dc=4, k_w_nb=1,
                      k_t=1)
    sigma_poly, _ = wng_polynomial(constraint_basis(spec), k_t=0)
    assert len(sigma_poly) - 1 == 2 * (spec.k_w_dc - 1)


def test_optimal_delay_beats_dense_grid(bw1_spec):
    """No delay on a dense grid may yield a lower WNG than the optimum."""
    basis = constraint_basis(bw1_spec)
    sigma_poly, _ = wng_polynomial(basis, k_t=0)
    q_opt = basis.optimal_delay(k_t=0)
    sig = np.polynomial.polynomial.polyval
    grid = np.arange(-5.0, 40.0, 0.01)
    assert float(sig(q_opt, sigma_poly)) <= np.min(sig(grid, sigma_poly)) \
        + 1e-12


def test_fully_interpolating_design_has_flat_wng():
    """K_w_dc = K = K_t + ...: when every degree of freedom is pinned the
    WNG cannot depend on q; the search warns and returns 0."""
    spec = DesignSpec(f_s=1.0, f_wb=0.05, k_w_dc=1, k_t=1)
    with pytest.warns(UserWarning, match="delay-independent"):
        q = constraint_basis(spec).optimal_delay(k_t=0)
    assert q == 0.0


def test_kept_optimum_warns_on_every_call(bw1_spec):
    """The optimum of each output is searched once and kept, but a
    delay-independent WNG (BW1's highest derivative output) warns on every
    request, as a fresh search does."""
    basis = constraint_basis(bw1_spec)
    for _ in range(2):
        with pytest.warns(UserWarning, match="delay-independent"):
            assert basis.optimal_delay(k_t=bw1_spec.k_t - 1) == 0.0


def test_white_noise_gain_first_order_closed_form():
    """K = 1: Sigma = |c|^2 / (1 - p^2) with c = 1 - p."""
    spec = DesignSpec(f_s=1.0, f_wb=0.05, k_w_dc=1, k_t=1, group_delay=0.0)
    d = design_filterbank(spec)
    p = float(d.poles[0].real)
    expected = (1.0 - p) ** 2 / (1.0 - p * p)
    assert d.sigma[0, 0] == pytest.approx(expected, rel=1e-12)


def test_white_noise_gain_rejects_inconsistent_input():
    c = np.array([[1.0 + 0.5j]])
    s = np.array([[1.0 + 0.9j]])  # not a valid Gram matrix
    with pytest.raises(ValueError, match="non-real"):
        white_noise_gain(c, s)


# ---------------------------------------------------------------------------
# Transfer coefficients


def test_transfer_coefficients_first_order():
    b, a = transfer_coefficients(np.array([[0.25 + 0j]]),
                                 np.array([0.5 + 0j]))
    assert np.allclose(a, [1.0, -0.5])
    assert b.shape == (1, 2) and np.allclose(b, [[0.25, 0.0]])


def test_transfer_coefficients_matrix_equals_per_column(bw1_design):
    """A K x K_t coefficient matrix expands exactly as one call per
    one-column slice."""
    d = bw1_design
    b, a = transfer_coefficients(d.c, d.poles)
    assert b.shape == (d.n_outputs, d.order + 1)
    for kt in range(d.n_outputs):
        b_kt, a_kt = transfer_coefficients(d.c[:, kt:kt + 1], d.poles)
        assert b_kt.shape == (1, d.order + 1)
        assert np.array_equal(b[kt:kt + 1], b_kt)
        assert np.array_equal(a, a_kt)


def _transfer_coefficients_per_term(c, poles):
    """transfer_coefficients as it was: one cofactor expansion per k."""
    poles_hp = np.asarray(poles, dtype=np.clongdouble)
    K = len(poles_hp)
    cols = np.asarray(c, dtype=np.clongdouble).T
    a = np.ones(1, dtype=np.clongdouble)
    for p in poles_hp:
        a = np.convolve(a, np.array([1.0, -p], dtype=np.clongdouble))
    b = np.zeros((len(cols), K + 1), dtype=np.clongdouble)
    for k in range(K):
        term = np.zeros_like(b)
        term[:, 0] = cols[:, k]
        deg = 1
        for j in range(K):
            if j != k:
                term[:, 1:deg + 1] -= poles_hp[j] * term[:, :deg]
                deg += 1
        b += term
    a = np.asarray(a.real, dtype=float)
    b = np.asarray(b.real, dtype=float)
    a[0] = 1.0
    b[:, K] = 0.0
    return b, a


def _backward_half_input():
    """The backward half of a two-sided design as noncausal_design expands
    it: extended-precision products -c_k r_k over the reflected poles."""
    spec = _nc_spec()
    poles = full_z_poles(spec.total_constraints // 2,
                         spec.omega_wb * spec.f_s, spec.t_s)
    c = solve_coefficients(assemble_system(spec, poles))
    outside = np.abs(poles) > 1.0
    r = 1.0 / poles[outside]
    return -c[outside, :].astype(np.clongdouble) * r[:, None], r


@pytest.mark.parametrize("case", ["BW1", "tracker C", "backward half",
                                  "one output"])
def test_transfer_coefficients_bit_identical_to_per_term(case, bw1_design,
                                                         tracker_designs):
    """Expanding every cofactor at once multiplies and sums in the same
    order as the expansion one term at a time."""
    if case == "BW1":
        c, poles = bw1_design.c, bw1_design.poles
    elif case == "tracker C":
        c, poles = tracker_designs["C"].c, tracker_designs["C"].poles
    elif case == "backward half":
        c, poles = _backward_half_input()
    else:
        c, poles = bw1_design.c[:, 1:2], bw1_design.poles
    b, a = transfer_coefficients(c, poles)
    b_ref, a_ref = _transfer_coefficients_per_term(c, poles)
    assert np.array_equal(b, b_ref) and np.array_equal(a, a_ref)


def test_transfer_representations_agree_on_grid(bw1_design):
    """Partial-fraction and polynomial forms of every output must agree."""
    d = bw1_design
    w = np.linspace(0.0, np.pi, 512)
    z = np.exp(1j * w)
    for kt in range(d.n_outputs):
        h_pf = sum(c * z / (z - p) for c, p in zip(d.c[:, kt], d.poles))
        h_ba = np.polyval(d.b[kt], z) / np.polyval(d.a, z)
        scale = np.max(np.abs(h_pf))
        assert np.max(np.abs(h_pf - h_ba)) < 1e-8 * max(scale, 1.0)


def test_transfer_layout_invariants(bw1_design):
    d = bw1_design
    assert d.a[0] == 1.0
    for b in d.b:
        assert b[-1] == 0.0
        assert len(b) == len(d.a) == d.order + 1


# ---------------------------------------------------------------------------
# End-to-end causal designs


def test_bw1_design_residual_and_smoother_gain(bw1_spec, bw1_design):
    poles = causal_z_poles(bw1_spec.total_constraints,
                           bw1_spec.omega_wb * bw1_spec.f_s, bw1_spec.t_s)
    system = assemble_system(bw1_spec, poles, q=bw1_design.q)
    resid = np.max(np.abs(system.psi @ bw1_design.c - system.d))
    assert resid < 1e-8 * (1.0 + np.max(np.abs(system.d)))
    assert bw1_design.sigma.shape == (3, 3)
    assert bw1_design.order == 9 and bw1_design.n_outputs == 3


def test_per_output_delay_optimizes_each_row(bw1_spec, bw1_design):
    """The delay optimal for each output alone comes from the design's own
    system: the smoother's is the delay the design applies, and each
    output's minimizes that output's WNG over a dense grid."""
    basis = constraint_basis(bw1_spec)
    with warnings.catch_warnings():
        # The highest derivative row has a delay-independent WNG here.
        warnings.simplefilter("ignore", UserWarning)
        delays = [basis.optimal_delay(kt) for kt in range(bw1_spec.k_t)]
    assert delays[0] == bw1_design.q
    sig = np.polynomial.polynomial.polyval
    grid = np.arange(-5.0, 40.0, 0.01)
    for kt, q in enumerate(delays):
        sigma_poly, _ = wng_polynomial(basis, kt)
        best = float(np.min(sig(grid, sigma_poly)))
        assert float(sig(q, sigma_poly)) <= best * (1.0 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# Non-causal designs


def _nc_spec(**kw):
    base = dict(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=4, k_w_nb=2,
                k_t=1, group_delay=0.0, causal=False)
    base.update(kw)
    return DesignSpec(**base)


def test_noncausal_split_matches_unsplit_response():
    spec = _nc_spec()
    fwd, bwd = noncausal_design(spec)
    poles = full_z_poles(spec.total_constraints // 2,
                         spec.omega_wb * spec.f_s, spec.t_s)
    system = assemble_system(spec, poles)
    c = solve_coefficients(system)
    w = np.linspace(0.0, np.pi, 257)
    z = np.exp(1j * w)
    h_full = sum(ck * z / (z - p) for ck, p in zip(c[:, 0], poles))
    h_split = (np.polyval(fwd.b[0], z) / np.polyval(fwd.a, z)
               + np.polyval(bwd.b[0], np.conj(z)) / np.polyval(bwd.a,
                                                               np.conj(z)))
    assert np.max(np.abs(h_full - h_split)) < 1e-10


def test_noncausal_split_pole_partition():
    fwd, bwd = noncausal_design(_nc_spec())
    assert np.all(np.abs(fwd.poles) < 1.0)
    assert np.all(np.abs(bwd.poles) < 1.0)  # stored as r = 1/p, stable
    assert len(fwd.poles) + len(bwd.poles) == 8


def test_noncausal_requires_even_constraints_and_numeric_delay():
    with pytest.raises(ValueError, match="even constraint count"):
        noncausal_design(_nc_spec(k_w_dc=3))
    with pytest.raises(ValueError, match="numeric group delay"):
        noncausal_design(_nc_spec(group_delay="optimal"))
    with pytest.raises(ValueError, match="causal=False"):
        noncausal_design(DesignSpec(f_s=1.0, f_wb=0.05, k_w_dc=2, k_t=1,
                                    group_delay=0.0))
    with pytest.raises(ValueError, match="use noncausal_design"):
        design_filterbank(_nc_spec())
    with pytest.raises(ValueError, match="needs a causal basis"):
        wng_polynomial(constraint_basis(_nc_spec()))


def test_noncausal_wng_split_sums_to_total():
    """The forward design stores the total two-sided WNG; it must exceed the
    anticausal contribution stored on the backward design."""
    fwd, bwd = noncausal_design(_nc_spec())
    assert fwd.sigma[0, 0] > bwd.sigma[0, 0] > 0.0


#: Two-sided specs of the benchmark's design-sweep grid, as
#: (K_w_dc, K_w_nb, K_t).
_NC_GRID = [(4, 2, 1), (2, 0, 2), (6, 1, 2), (8, 3, 1)]


def _nc_grid_design(kdc, knb, kt):
    return noncausal_design(_nc_spec(k_w_dc=kdc, k_w_nb=knb, k_t=kt,
                                     f_nb=0.07 if knb else None))


@pytest.mark.parametrize("kdc, knb, kt", _NC_GRID)
def test_noncausal_halves_expand_to_their_b(kdc, knb, kt):
    """Each half's (c, poles) is the partial fraction of its b/a; the
    backward b is that expansion one sample late."""
    for half, lag in zip(_nc_grid_design(kdc, knb, kt), (0, 1)):
        b, a = transfer_coefficients(half.c, half.poles)
        assert np.array_equal(a, half.a)
        b_half = np.array(half.b)
        err = np.max(np.abs(np.roll(b, lag, axis=1) - b_half))
        assert err <= 1e-12 * np.max(np.abs(b_half))


@pytest.mark.parametrize("kdc, knb, kt", _NC_GRID)
def test_noncausal_wng_from_gram_matrix(kdc, knb, kt):
    """Each half's WNG is the causal formula over its own (c, poles); the
    forward half adds the backward one to hold the total."""
    fwd, bwd = _nc_grid_design(kdc, knb, kt)
    assert np.array_equal(bwd.sigma,
                          white_noise_gain(bwd.c, gram_matrix(bwd.poles)))
    assert np.array_equal(fwd.sigma,
                          white_noise_gain(fwd.c, gram_matrix(fwd.poles))
                          + bwd.sigma)


@pytest.mark.parametrize("kdc, knb, kt", _NC_GRID)
def test_noncausal_wng_is_impulse_response_energy(kdc, knb, kt):
    """fwd.sigma[k, k] is the energy of output k's two-sided impulse
    response as run_noncausal filters it, and bwd.sigma[k, k] the energy
    of its n < 0 part."""
    from maxflat.realize import run_noncausal
    fwd, bwd = _nc_grid_design(kdc, knb, kt)
    L = 20000
    imp = np.zeros(2 * L + 1)
    imp[L] = 1.0
    for k in range(kt):
        h = run_noncausal(fwd, bwd, imp, k_t=k)
        assert np.sum(h ** 2) == pytest.approx(fwd.sigma[k, k], rel=1e-9)
        assert np.sum(h[:L] ** 2) == pytest.approx(bwd.sigma[k, k],
                                                   rel=1e-9)


# ---------------------------------------------------------------------------
# One constraint assembly per constraint set


@pytest.mark.parametrize("solve, spec", [
    (design_filterbank, DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07,
                                   k_w_dc=3, k_w_nb=3, k_t=3)),
    (design_filterbank, DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07,
                                   k_w_dc=3, k_w_nb=3, k_t=3,
                                   group_delay=12.0)),
    (noncausal_design, _nc_spec()),
    (cli.design_to_payload, DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07,
                                       k_w_dc=3, k_w_nb=3, k_t=3)),
    (cli.design_to_payload, _nc_spec()),
])
def test_one_assembly_per_design(monkeypatch, solve, spec):
    """The delay search and the CLI's condition report reuse the basis the
    design solves on, and a design whose constraint set is in the memo
    builds none.  Every basis, assemble_system's too, is built by
    ConstraintBasis.from_poles."""
    calls = []
    from_poles = ConstraintBasis.from_poles

    def spy(*args, **kwargs):
        calls.append(args)
        return from_poles(*args, **kwargs)
    monkeypatch.setattr(ConstraintBasis, "from_poles", spy)
    _clear_design_memos()
    solve(spec)
    assert len(calls) == 1
    solve(spec)
    assert len(calls) == 1


@pytest.mark.parametrize("spec", [
    DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=3, k_w_nb=3,
               k_t=3),
    _nc_spec(k_t=2),
], ids=["causal", "two-sided"])
def test_assemble_system_equals_basis_system(spec):
    """assemble_system over the spec's own Butterworth poles gives the
    Psi and D of the design path's basis, bit for bit."""
    K, q = spec.total_constraints, 3.5
    if spec.causal:
        poles = causal_z_poles(K, spec.omega_wb * spec.f_s, spec.t_s)
    else:
        poles = full_z_poles(K // 2, spec.omega_wb * spec.f_s, spec.t_s)
    system = assemble_system(spec, poles, q)
    basis = constraint_basis(spec)
    assert np.array_equal(system.psi, basis.psi)
    assert np.array_equal(system.d, basis.system(q, spec.k_t).d)


# ---------------------------------------------------------------------------
# The memo of bases and the solved banks each basis keeps


def _clear_design_memos():
    """Empty the design memo, and with its bases the banks they keep, so
    that the next design is built cold."""
    design_module._memo_basis.cache_clear()


def _sweep_grid_specs():
    """The benchmark's design-sweep grid, causal and two-sided."""
    specs = []
    for kdc in range(2, 9):
        for knb in range(4):
            for kt in range(1, min(kdc, 3) + 1):
                for q in ("optimal", 5.0):
                    specs.append(DesignSpec(
                        f_s=1000.0, f_wb=0.05, f_nb=0.07 if knb else None,
                        k_w_dc=kdc, k_w_nb=knb, k_t=kt, group_delay=q))
    for kdc in (2, 4, 6, 8):
        for knb in range(4):
            for kt in (1, 2):
                specs.append(DesignSpec(
                    f_s=1000.0, f_wb=0.05, f_nb=0.07 if knb else None,
                    k_w_dc=kdc, k_w_nb=knb, k_t=kt, group_delay=0.0,
                    causal=False))
    return specs


def _sweep_specs():
    """The benchmark's design-sweep grid, the 32 specs it draws for seed 3,
    round 0 (one of them rejected), a spec with a delay-independent WNG,
    a twin whose F_s is a float32 of the same value (other poles, so
    another memo entry), and a causal and a two-sided spec designed at
    q = 0.0 and then -0.0, which share a memo entry."""
    specs = _sweep_grid_specs()
    rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,)))
    drawn = []
    while len(drawn) < 32:
        kt = int(rng.integers(1, 4))
        kdc = int(rng.integers(kt, 7))
        knb = int(rng.integers(0, 3))
        kpi = int(rng.integers(0, 3))
        if kdc + 2 * knb + kpi > 12:
            continue
        f_wb = float(rng.uniform(0.02, 0.15))
        f_nb = float(rng.uniform(f_wb + 0.01, 0.45)) if knb else None
        f_s = float(rng.choice([1.0, 10.0, 1000.0]))
        q = float(rng.uniform(0, 15)) if rng.random() < 0.5 else "optimal"
        drawn.append(DesignSpec(f_s=f_s, f_wb=f_wb, f_nb=f_nb, k_w_dc=kdc,
                                k_w_nb=knb, k_w_pi=kpi, k_t=kt,
                                group_delay=q))
    specs += drawn
    specs.append(DesignSpec(f_s=1.0, f_wb=0.05, k_w_dc=1, k_t=1))
    for f_s in (1000.0, np.float32(1000.0)):
        specs.append(DesignSpec(f_s=f_s, f_wb=0.25, k_w_dc=3, k_t=1))
    for causal in (True, False):
        for q in (0.0, -0.0):
            specs.append(DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07,
                                    k_w_dc=4, k_w_nb=1, k_t=2, group_delay=q,
                                    causal=causal))
    return specs


def _outcome(spec):
    """(every array of the design, or the error), and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            halves = (noncausal_design(spec) if not spec.causal
                      else (design_filterbank(spec),))
            result = [(d.q.hex(), d.condition, d.sigma.tobytes(),
                       d.a.tobytes(),
                       tuple(b.tobytes() for b in d.b), d.c.tobytes(),
                       d.poles.tobytes()) for d in halves]
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.fixture(scope="module")
def sweep_outcomes():
    """Each spec designed cold (the memo cleared first), then the whole
    list twice with the memo kept, as the benchmark's rounds run it."""
    specs = _sweep_specs()
    cold = []
    for spec in specs:
        _clear_design_memos()
        cold.append(_outcome(spec))
    _clear_design_memos()
    warm = [[_outcome(spec) for spec in specs] for _ in range(2)]
    return cold, warm


def test_memo_designs_equal_cold_designs_bit_for_bit(sweep_outcomes):
    cold, warm = sweep_outcomes
    results = [r for r, _ in cold]
    assert sum(isinstance(r, tuple) for r in results) >= 2  # rejections
    for rounds in warm:
        assert [r for r, _ in rounds] == results


def test_memo_designs_warn_as_cold_designs(sweep_outcomes):
    cold, warm = sweep_outcomes
    caught = [w for _, w in cold]
    categories = {c for ws in caught for c, _ in ws}
    assert {IllConditionedSystem, UserWarning} <= categories
    for rounds in warm:
        assert [w for _, w in rounds] == caught


@pytest.mark.parametrize("spec", [
    DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=3, k_w_nb=3,
               k_t=3),
    _nc_spec(),
], ids=["causal", "two-sided"])
def test_memo_hands_out_its_own_read_only_designs(spec):
    """A memoized design is the object its basis keeps, every array of it
    is read-only, and a write into one raises without changing the next
    design of the spec."""
    solve = design_filterbank if spec.causal else noncausal_design
    first = solve(spec)
    assert solve(spec) is first
    halves = first if isinstance(first, tuple) else (first,)
    before = _outcome(spec)
    basis = constraint_basis(spec)
    q = halves[0].q
    kept = basis._solved[q, math.copysign(1.0, q), spec.k_t]
    assert list(map(id, kept)) == list(map(id, halves))
    for array in (basis.poles, basis.psi, basis.s):
        assert array is None or not array.flags.writeable
    for d in halves:
        assert d.b.dtype == float and d.b.shape == (spec.k_t, d.order + 1)
        for array in (d.poles, d.c, d.sigma, d.a, d.b):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 7.0
    assert _outcome(spec) == before


@pytest.mark.parametrize("spec", [
    DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=4, k_w_nb=1, k_t=2,
               group_delay=0.0),
    _nc_spec(k_t=2),
], ids=["causal", "two-sided"])
def test_memo_keeps_the_sign_of_a_zero_delay(spec):
    """A design at q = -0.0 after one at q = 0.0 of the same constraint
    set keeps the caller's -0.0, as a cold design does."""
    solve = design_filterbank if spec.causal else noncausal_design
    _clear_design_memos()
    for q, sign in ((0.0, 1.0), (-0.0, -1.0), (0.0, 1.0)):
        designed = solve(dataclasses.replace(spec, group_delay=q))
        for d in designed if isinstance(designed, tuple) else (designed,):
            assert math.copysign(1.0, d.q) == sign


def _count_solves(monkeypatch):
    """A list that gets the arguments of every _solve_banks call."""
    solves = []
    solve = design_module._solve_banks
    monkeypatch.setattr(design_module, "_solve_banks",
                        lambda *args: solves.append(args) or solve(*args))
    return solves


def test_memo_key_ignores_f_nb_without_narrowband_constraints(monkeypatch):
    solves = _count_solves(monkeypatch)
    _clear_design_memos()
    for f_nb in (None, 0.3):
        design_filterbank(DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=f_nb,
                                     k_w_dc=3, k_t=2))
    info = design_module._memo_basis.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert len(solves) == 1


def test_memo_is_bounded(monkeypatch):
    solves = _count_solves(monkeypatch)
    _clear_design_memos()
    n = design_module._MEMO_SIZE + 20
    for f_wb in np.linspace(0.01, 0.4, n):
        design_filterbank(DesignSpec(f_s=1.0, f_wb=float(f_wb), k_w_dc=2,
                                     k_t=1))
    info = design_module._memo_basis.cache_info()
    assert info.misses == n
    assert info.currsize == info.maxsize == design_module._MEMO_SIZE
    # A basis keeps the banks of its last _BANKS_PER_BASIS (q, K_t) pairs.
    m = design_module._BANKS_PER_BASIS + 20
    delays = [float(q) for q in np.linspace(0.0, 10.0, m)]
    for q in delays:
        spec = DesignSpec(f_s=1.0, f_wb=0.4, k_w_dc=2, k_t=1, group_delay=q)
        design_filterbank(spec)
    assert len(solves) == n + m
    kept = constraint_basis(spec)._solved
    assert list(kept) == [(q, 1.0, 1) for q in
                          delays[-design_module._BANKS_PER_BASIS:]]
    design_filterbank(spec)
    assert len(solves) == n + m
    # Sets of more than _MEMO_MAX_K constraints are never stored, and
    # neither are their banks: each design solves again.
    before = design_module._memo_basis.cache_info()
    big = DesignSpec(f_s=1.0, f_wb=0.45, k_w_dc=design_module._MEMO_MAX_K + 2,
                     k_t=1, group_delay=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedSystem)
        for _ in range(2):
            design_filterbank(big)
    assert design_module._memo_basis.cache_info() == before
    assert len(solves) == n + m + 2


def test_evicted_basis_drops_its_banks(monkeypatch):
    """Once the memo has evicted a constraint set's basis, the next design
    of that set builds its basis and solves again, to the same bits."""
    solves = _count_solves(monkeypatch)
    _clear_design_memos()
    spec = DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=3, k_w_nb=3,
                      k_t=3)
    before = _outcome(spec)
    assert _outcome(spec) == before
    assert len(solves) == 1
    for f_wb in np.linspace(0.01, 0.4, design_module._MEMO_SIZE):
        design_filterbank(DesignSpec(f_s=1.0, f_wb=float(f_wb), k_w_dc=2,
                                     k_t=1))
    misses = design_module._memo_basis.cache_info().misses
    assert _outcome(spec) == before
    assert design_module._memo_basis.cache_info().misses == misses + 1
    assert len(solves) == design_module._MEMO_SIZE + 2


#: A design-sweep grid spec whose solve fails (its expansion leaves an
#: imaginary residue) in every round.
_FAILING_GRID_SPEC = DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=8,
                                k_w_nb=3, k_t=3, group_delay=5.0)


def test_memo_keeps_failed_solves(monkeypatch):
    """A failing solve raises the same error, with the same warnings,
    cold, warm and after the memo is cleared; a warm call does not solve
    again, and the basis keeps the error's class and message only, no
    exception and so no traceback."""
    solves = _count_solves(monkeypatch)
    _clear_design_memos()
    cold = _outcome(_FAILING_GRID_SPEC)
    assert cold[0] == (NumericalError, cold[0][1])
    assert "transfer coefficients have imaginary residue" in cold[0][1]
    assert [category for category, _ in cold[1]] == [IllConditionedSystem]
    assert len(solves) == 1
    assert _outcome(_FAILING_GRID_SPEC) == cold
    assert len(solves) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedSystem)
        stored = constraint_basis(_FAILING_GRID_SPEC)._solved[5.0, 1.0, 3]
    assert stored == (NumericalError, cold[0][1])
    assert not any(isinstance(x, BaseException) for x in stored)
    _clear_design_memos()
    assert _outcome(_FAILING_GRID_SPEC) == cold
    assert len(solves) == 2


# ---------------------------------------------------------------------------
# Every bank is the expansion of its own coefficients


def _backward_c_hp(spec):
    """The extended-precision c_b = -c r that noncausal_design expands for
    its backward half (its stored c is the complex128 rounding)."""
    basis = constraint_basis(spec)
    c = solve_coefficients(basis.system(float(spec.group_delay), spec.k_t))
    outside = np.abs(basis.poles) >= 1.0
    r = 1.0 / basis.poles[outside]
    return -c[outside, :].astype(np.clongdouble) * r[:, None]


@pytest.mark.filterwarnings("ignore::maxflat.design.IllConditionedSystem")
@pytest.mark.filterwarnings("ignore:delay-independent WNG")
def test_designs_expand_their_own_coefficients():
    """For every design-sweep grid spec, every bank's b/a are
    transfer_coefficients of its own coefficients over its poles: (c,
    poles) for causal banks and the forward half, (-c r in extended
    precision, r) one sample late for the backward half."""
    designed = 0
    for spec in _sweep_grid_specs():
        try:
            banks = (noncausal_design(spec) if not spec.causal
                     else (design_filterbank(spec),))
        except ValueError:  # a grid spec the design rejects
            continue
        designed += 1
        expected = [transfer_coefficients(banks[0].c, banks[0].poles)]
        if not spec.causal:
            b_z, a_b = transfer_coefficients(_backward_c_hp(spec),
                                             banks[1].poles)
            expected.append((np.roll(b_z, 1, axis=1), a_b))
        for d, (b, a) in zip(banks, expected):
            assert np.array_equal(np.array(d.b), b), spec
            assert np.array_equal(d.a, a), spec
    assert designed > len(_sweep_grid_specs()) // 2


# ---------------------------------------------------------------------------
# Bit oracles of the design path: Psi one basis column per pole and block,
# and the WNG polynomial one term at a time, as the design path computed
# them before it formed each block and the terms as arrays.


def _basis_column_oracle(p, omega_d, K):
    """One pole's basis column, each entry its own dot product."""
    z = np.exp(1j * omega_d)
    alp = alpha_table(K)
    psi = z / (z - p)
    psi_pows = psi ** np.arange(1, K + 1) * (-1.0) ** np.arange(K)
    out = np.empty(K, dtype=complex)
    for kw in range(K):
        out[kw] = (1j) ** kw * np.dot(alp[kw, :kw + 1], psi_pows[:kw + 1])
    return out


def _psi_oracle(spec, poles):
    K = spec.total_constraints
    psi = np.empty((K, K), dtype=complex)
    row = 0
    for w_d, count in design_module.constraint_blocks(spec):
        for k, p in enumerate(poles):
            psi[row:row + count, k] = _basis_column_oracle(p, w_d, count)
        row += count
    return psi


def _wng_polynomial_oracle(basis, k_t):
    spec = basis.spec
    phi = design_module._solve(basis.psi, np.eye(
        spec.total_constraints, dtype=complex))[:, :spec.k_w_dc]
    j = phi.conj().T @ basis.s @ phi
    kdc = spec.k_w_dc
    deg = 2 * (kdc - 1 - k_t)
    coeffs = np.zeros(deg + 1, dtype=complex)
    scale = (1.0 / spec.t_s) ** k_t
    g = np.zeros(kdc, dtype=complex)
    for k in range(k_t, kdc):
        ratio = math.factorial(k) // math.factorial(k - k_t)
        g[k] = (-1j) ** k * scale * ratio
    for ka in range(k_t, kdc):
        for kb in range(k_t, kdc):
            coeffs[ka + kb - 2 * k_t] += np.conj(g[ka]) * g[kb] * j[ka, kb]
    sigma_poly = design_module._real_wng(coeffs)
    p_poly = np.polynomial.polynomial.polyder(sigma_poly) if deg > 0 \
        else np.zeros(1)
    return sigma_poly, np.atleast_1d(p_poly)


def _oracle_specs(wl):
    """The design-sweep grid and the specs it draws in round 0 of seeds
    0, 3 and 7 (wl: the benchmark's workload module)."""
    specs = wl.grid_specs(False)
    for seed in (0, 3, 7):
        specs += wl.drawn_specs(wl.round_rng(seed, 0), wl.DRAWN_PER_ROUND)
    return specs


def test_design_path_equals_its_oracles_bit_for_bit(bench_workloads):
    """Psi, the WNG polynomial of every output and its optimal delay equal
    the per-column and per-term oracles bit for bit on every design-sweep
    grid spec and on the drawn specs of three seeds."""
    causal = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for spec in _oracle_specs(bench_workloads):
            basis = constraint_basis(spec)
            assert np.array_equal(basis.psi, _psi_oracle(spec, basis.poles))
            if not spec.causal:
                continue
            causal += 1
            for k_t in range(spec.k_w_dc):
                sigma, p = wng_polynomial(basis, k_t)
                sigma_o, p_o = _wng_polynomial_oracle(basis, k_t)
                assert np.array_equal(sigma, sigma_o)
                assert np.array_equal(p, p_o)
                q_o = design_module._wng_minimum(sigma_o, p_o)
                assert basis.optimal_delay(k_t) == (0.0 if q_o is None
                                                    else q_o)
    assert causal == 256


def test_basis_columns_of_a_pole_array_equal_single_pole_columns():
    """Column j of the array call is the call on poles[j], bit for bit,
    and both equal the per-entry oracle."""
    poles = causal_z_poles(7, 2 * np.pi * 0.05, 1.0)
    for omega in (0.0, -0.44, 0.44, np.pi):
        for K in (1, 3, 7):
            block = basis_derivative_column(poles, omega, K)
            assert block.shape == (K, len(poles))
            for j, p in enumerate(poles):
                col = basis_derivative_column(poles[j:j + 1], omega, K)
                assert col.shape == (K, 1)
                assert np.array_equal(block[:, j:j + 1], col)
                assert np.array_equal(col[:, 0],
                                      _basis_column_oracle(p, omega, K))


def _basis_block_dot_oracle(p, omega_d, K):
    """basis_derivative_column with each entry its own np.dot of a signed
    complex alpha row and one pole's powers."""
    z = np.exp(1j * omega_d)
    powers = (z / (z - p)).reshape(-1, 1) ** np.arange(1, K + 1)
    rows = [(alpha_table(K)[k, :k + 1] * (-1.0) ** np.arange(k + 1))
            .astype(complex) for k in range(K)]
    out = np.array([[np.dot(row, pw[:len(row)]) for pw in powers]
                    for row in rows])
    return out * (1j ** np.arange(K))[:, None]


def test_basis_columns_equal_per_entry_dot_over_random_poles():
    """The stacked matmul of each alpha row gives every entry bit for bit
    as its own np.dot, for K up to 16 over random poles inside and
    outside the unit circle and random constraint frequencies."""
    rng = np.random.default_rng(2024)
    for K in range(1, 17):
        for n_poles in (1, 2, K, 2 * K):
            for _ in range(4):
                poles = rng.uniform(0.05, 1.6, n_poles) \
                    * np.exp(1j * rng.uniform(-np.pi, np.pi, n_poles))
                omega = float(rng.choice([0.0, np.pi,
                                          rng.uniform(-np.pi, np.pi)]))
                assert np.array_equal(
                    basis_derivative_column(poles, omega, K),
                    _basis_block_dot_oracle(poles, omega, K)), (K, n_poles)


@pytest.mark.parametrize("block", range(3))
def test_pole_at_a_constraint_frequency_is_singular(block):
    """A pole on the unit circle at a constraint frequency raises
    NumericalError from the array call and from the basis build, as from
    the one-pole call."""
    spec = DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=3,
                      k_w_nb=1, k_t=1, group_delay=4.0)
    w_d, count = design_module.constraint_blocks(spec)[block]
    poles = causal_z_poles(5, spec.omega_wb * spec.f_s, spec.t_s)
    poles[2] = np.exp(1j * w_d)
    with pytest.raises(NumericalError, match="singular basis evaluation"):
        basis_derivative_column(poles, w_d, count)
    with pytest.raises(NumericalError, match="singular basis evaluation"):
        ConstraintBasis.from_poles(spec, poles)
