"""The closed-form numerator of a causal bank, as an oracle of the solve.

Output k of a bank over the poles p_j is H_k(z) = sum_j c_j z / (z - p_j)
= z P_k(z) / A(z), with A(z) = prod_j (z - p_j) and deg P_k <= K - 1.  The
narrowband and pi constraints are zeros of H_k, so P_k = N(z) F_k(z) with
N(z) = (z^2 - 2 cos(omega_nb) z + 1)^K_w_nb (z + 1)^K_w_pi.  The dc
constraints ask H_k = (ln z)^k z^-q / T_s^k + O((z - 1)^K_w_dc), so F_k is
the Taylor polynomial of degree K_w_dc - 1, at z = 1, of
(ln z)^k z^-(q+1) A(z) / N(z) / T_s^k, and c_j = P_k(p_j) / A'(p_j).  No
system is solved.

The oracle works on exact rationals: the float64 poles, q, T_s and
cos(omega_nb) are read as Fractions, complex numbers as (re, im) pairs,
and only the results are rounded.  A float64 evaluation of c_j cancels
badly, because F_k nearly vanishes at p_j - 1.
"""

import math
import warnings
from fractions import Fraction

import numpy as np

from maxflat.analyze import verify_constraints
from maxflat.design import FilterbankDesign, NumericalError, design_filterbank

_ZERO, _ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _real(v):
    return (Fraction(float(v)), Fraction(0))


def _polymul(x, y, n=None):
    """Product of two ascending coefficient lists, cut to n terms."""
    out = [_ZERO] * (len(x) + len(y) - 1 if n is None else n)
    for i, xi in enumerate(x[:len(out)]):
        for j, yj in enumerate(y[:len(out) - i]):
            out[i + j] = _add(out[i + j], _mul(xi, yj))
    return out


def _polyval(coef, x):
    out = _ZERO
    for c in reversed(coef):
        out = _add(_mul(out, x), c)
    return out


def _shift(coef, t):
    """Ascending coefficients of p(x + t) from those of p(x), t an int."""
    return [(sum(c[0] * math.comb(j, i) * t ** (j - i)
                 for j, c in enumerate(coef) if j >= i),
             sum(c[1] * math.comb(j, i) * t ** (j - i)
                 for j, c in enumerate(coef) if j >= i))
            for i in range(len(coef))]


def closed_form_bank(spec, poles, q, t_s):
    """(c, b) of the causal bank of spec over poles at delay q, each entry
    rounded once from its exact value."""
    K, n = spec.total_constraints, spec.k_w_dc
    p = [(Fraction(float(v.real)), Fraction(float(v.imag))) for v in poles]
    e = [(x - 1, y) for x, y in p]  # the poles in w = z - 1
    null = [_ONE]
    for _ in range(spec.k_w_pi):
        null = _polymul(null, [_ONE, _ONE])
    for _ in range(spec.k_w_nb):
        null = _polymul(null, [_ONE, _real(-2.0 * np.cos(spec.omega_nb)),
                               _ONE])
    a_w = [_ONE]
    for x, y in e:
        a_w = _polymul(a_w, [(-x, -y), _ONE])
    # The series of A(1 + w) (1 + w)^-(q+1) / N(1 + w), then times ln(1 + w)
    # once per output.
    n_w, q = _shift(null, 1), Fraction(float(q))
    inv = [(1 / n_w[0][0], Fraction(0))]
    for m in range(1, n):
        acc = sum(n_w[i][0] * inv[m - i][0]
                  for i in range(1, min(m, len(n_w) - 1) + 1))
        inv.append((-acc / n_w[0][0], Fraction(0)))
    delay = [_ONE]
    for m in range(n - 1):
        delay.append(_mul(delay[-1], ((-(q + 1) - m) / (m + 1), 0)))
    log = [_ZERO] + [(Fraction((-1) ** (m + 1), m), Fraction(0))
                     for m in range(1, n)]
    series = _polymul(_polymul(a_w, inv, n), delay, n)
    c = np.zeros((K, spec.k_t), dtype=complex)
    b = np.zeros((spec.k_t, K + 1))
    scale = Fraction(float(t_s))
    for k in range(spec.k_t):
        f_w = [(x / scale ** k, y / scale ** k) for x, y in series]
        p_z = _polymul(null, _shift(f_w, -1))
        b[k, K - len(p_z):K] = [float(x) for x, _ in reversed(p_z)]
        for j in range(K):
            den = _ONE
            for i in range(K):
                if i != j:
                    den = _mul(den, (e[j][0] - e[i][0], e[j][1] - e[i][1]))
            num = _mul(_polyval(null, p[j]), _polyval(f_w, e[j]))
            norm = den[0] ** 2 + den[1] ** 2
            c[j, k] = complex(
                float((num[0] * den[0] + num[1] * den[1]) / norm),
                float((num[1] * den[0] - num[0] * den[1]) / norm))
        series = _polymul(series, log, n)
    return c, b


def test_closed_form_meets_the_constraints_and_matches_the_solve(
        bench_workloads):
    """For every causal spec of the design-sweep grid that designs, the
    closed-form bank over the design's poles and q passes every analytic
    check of verify_constraints, and for K <= 10 its b is within 1e-9 of
    max |b| of the design's."""
    designed = 0
    for spec in bench_workloads.grid_specs(False):
        if not spec.causal:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                d = design_filterbank(spec)
        except NumericalError:
            continue
        designed += 1
        c, b = closed_form_bank(spec, d.poles, d.q, d.t_s)
        bank = FilterbankDesign(poles=d.poles, c=c, q=d.q, sigma=d.sigma,
                                a=d.a, b=b, t_s=d.t_s)
        assert all(check.analytic_ok
                   for check in verify_constraints(spec, bank)), spec
        if spec.total_constraints <= 10:
            assert np.max(np.abs(b - d.b)) <= 1e-9 * np.max(np.abs(d.b)), spec
    assert designed == 145
