"""Maximally-flat IIR filterbank design.

A bank of K_t filters (a smoother plus temporal-derivative estimators of
orders 1..K_t-1) is built on K fixed one-pole basis functions
``psi_k(z) = z / (z - p_k)``.  The numerator coefficients are chosen so that
frequency-derivative constraints hold exactly at dc (flat passband with a
prescribed group delay q), at an optional narrowband null frequency
(+/- omega_nb), and at the Nyquist frequency (pi).  Stacking the constraints
gives a square linear system ``Psi C = D`` whose solution is the coefficient
matrix of the bank.

The white-noise gain (WNG) of the smoother is a polynomial in the group
delay q; its minimizer gives the optimal delay for a given pole set.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

# NumericalError is defined in butter, the lowest layer, which raises it
# too; this module re-exports it.
from .butter import NumericalError, causal_z_poles, full_z_poles

#: Tolerance on imaginary residue when coercing analytically-real
#: quantities (filter coefficients, WNG entries, polynomial roots) to real.
TOL_CPX = 1.0e-3
#: Two candidate delays whose WNG differs by less than this are tied;
#: the smaller delay wins.
TOL_WNG = 1.0e-6
#: Relative residual bound on the constraint solve.
RESIDUAL_RTOL = 1.0e-8
#: Condition-number threshold above which the constraint system is flagged.
COND_WARN = 1.0e12
#: unstable_reflection's float64 step-down trusts a reflection coefficient
#: k when 1 - |k| exceeds this times sum |a_j| times the error growth of
#: the steps before k, the product of their 1 / (1 - |k|); otherwise exact
#: arithmetic decides.  Over 4,944 rounded denominators (the benchmark's
#: grid and 4,000 drawn specs, BW1's and trackers A-D's counts oversampled
#: up to 64 times, and Butterworth sets of K = 2-20 at f_wb = 0.002-0.2)
#: no float64 k was further than 0.19 eps sum |a_j| times that growth from
#: the exact one: the margin is 21 times that.
STEP_DOWN_MARGIN = 4 * 2.0 ** -52

OPTIMAL = "optimal"

#: The tags of the detection study's detectors (``detector``) and the
#: constraint counts (K_w_dc, K_w_nb) of each tag of the tracking study's
#: trackers (``tracker``).  They are defined here, in a module that every
#: command of the CLI loads, so that its ``--help`` lists them without
#: loading either study; ``detector`` and ``tracker`` re-export them.
DETECTOR_TAGS = ("FIR_NUL_NC", "IIR_BW0", "IIR_BW1", "IIR_BW0_NC",
                 "IIR_BW1_NC")
TRACKER_CONFIGS: Dict[str, Tuple[int, int]] = {
    "A": (3, 0), "B": (3, 1), "C": (3, 3), "D": (6, 1),
}


class IllConditionedSystem(UserWarning):
    """Constraint matrix condition estimate exceeds COND_WARN."""


@dataclass(frozen=True)
class DesignSpec:
    """Complete description of one filterbank design problem.

    f_s is in Hz; f_wb and f_nb are in cycles/sample; group_delay is in
    samples and may be the string "optimal".
    """

    f_s: float
    f_wb: float
    k_w_dc: int
    k_t: int
    f_nb: Optional[float] = None
    k_w_nb: int = 0
    k_w_pi: int = 0
    group_delay: Union[float, str] = OPTIMAL
    causal: bool = True

    def __post_init__(self) -> None:
        counts = [("K_w_dc", self.k_w_dc), ("K_w_nb", self.k_w_nb),
                  ("K_w_pi", self.k_w_pi), ("K_t", self.k_t)]
        for label, value in counts:
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{label} must be an integer, got {value!r}")
        reals = [("F_s", self.f_s), ("f_wb", self.f_wb)]
        if self.f_nb is not None:
            reals.append(("f_nb", self.f_nb))
        if not isinstance(self.group_delay, str):
            reals.append(("group_delay", self.group_delay))
        for label, value in reals:
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{label} must be a finite number, "
                                 f"got {value!r}")
        if not isinstance(self.causal, bool):
            raise ValueError(f"causal must be a bool, got {self.causal!r}")
        if self.f_s <= 0:
            raise ValueError("F_s must be positive")
        if not 0 < self.f_wb < 0.5:
            raise ValueError("f_wb must lie in (0, 0.5) cycles/sample")
        if self.k_t < 1:
            raise ValueError("K_t must be a positive integer")
        if min(self.k_w_dc, self.k_w_nb, self.k_w_pi) < 0:
            raise ValueError("constraint counts must be nonnegative")
        if self.k_w_dc < self.k_t:
            raise ValueError("K_w_dc >= K_t violated")
        if self.k_w_nb > 0:
            if self.f_nb is None:
                raise ValueError("f_nb required when K_w_nb > 0")
            if not 0 < self.f_nb < 0.5:
                raise ValueError("f_nb must lie in (0, 0.5) cycles/sample")
            if not self.f_nb > self.f_wb:
                raise ValueError("F_nb > F_wb violated")
        if self.total_constraints < 1:
            raise ValueError("K = K_w_dc + 2 K_w_nb + K_w_pi must be >= 1")
        if isinstance(self.group_delay, str) and self.group_delay != OPTIMAL:
            raise ValueError('group_delay must be a number or "optimal"')

    @property
    def total_constraints(self) -> int:
        return self.k_w_dc + 2 * self.k_w_nb + self.k_w_pi

    @property
    def t_s(self) -> float:
        return 1.0 / self.f_s

    @property
    def omega_wb(self) -> float:
        return 2.0 * np.pi * self.f_wb

    @property
    def omega_nb(self) -> float:
        if self.f_nb is None:
            raise ValueError("spec has no narrowband frequency")
        return 2.0 * np.pi * self.f_nb


@dataclass(frozen=True)
class ConstraintSystem:
    """The stacked linear constraints Psi C = D for one design."""

    psi: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class FilterbankDesign:
    """A solved filterbank: basis poles, coefficients, and realizable forms.

    c is the K x K_t coefficient matrix (column k_t drives derivative order
    k_t).  a is the shared monic denominator (length K+1); b is the float64
    K_t x (K+1) numerator matrix, row k_t for output k_t (last column zero;
    the backward half of a two-sided design holds it one sample late, first
    column zero).  sigma is the real white-noise cross-gain matrix.
    condition is the condition estimate of Psi in the design's
    ConstraintBasis (None for a design read back from JSON).  A design is a
    read-only value, designed or read from JSON: it holds read-only views
    of poles, c, sigma, a and b.
    """

    poles: np.ndarray
    c: np.ndarray
    q: float
    sigma: np.ndarray
    a: np.ndarray
    b: np.ndarray
    t_s: float
    condition: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("poles", "c", "sigma", "a", "b"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def order(self) -> int:
        return len(self.poles)

    @property
    def n_outputs(self) -> int:
        return self.c.shape[1]


#: alpha_table's tables by K, each built once and stored read-only.
_ALPHA_TABLES: Dict[int, np.ndarray] = {}


def alpha_table(K: int) -> np.ndarray:
    """Coefficients alpha_{k,l} of the frequency-derivative expansion.

    Built by the product-rule recursion
    alpha_{k,l} = l*alpha_{k-1,l-1} + (l+1)*alpha_{k-1,l}, with
    alpha_{k,0} = 1, alpha_{k,k} = k!, alpha_{k,l} = 0 for l > k; in closed
    form alpha_{k,l} = l! S(k+1, l+1), S the Stirling numbers of the second
    kind.  The recursion runs on Python integers, which do not overflow
    (entries of row k = 19 already pass the int64 range), and each entry is
    then rounded once to float64.  The table of each K is built once and
    returned read-only on every later call.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    table = _ALPHA_TABLES.get(K)
    if table is None:
        alp = [[0] * K for _ in range(K)]
        for kw in range(K):
            alp[kw][0] = 1
            for lw in range(1, kw):
                alp[kw][lw] = (lw * alp[kw - 1][lw - 1]
                               + (lw + 1) * alp[kw - 1][lw])
            alp[kw][kw] = math.factorial(kw)
        table = np.array([[float(v) for v in row] for row in alp])
        table.flags.writeable = False
        _ALPHA_TABLES[K] = table
    return table


def constraint_gap(z, p) -> np.ndarray:
    """z - p, broadcast, for z = e^{i omega_d} at constraint frequencies;
    NumericalError if a pole p lies within 1e-12 of one."""
    gap = z - p
    if (np.abs(gap) < 1e-12).any():
        raise NumericalError("singular basis evaluation: pole on the unit "
                             "circle at a constraint frequency")
    return gap


def check_monic(a: np.ndarray, message: str) -> None:
    """ValueError(message) unless a[0] lies within 1e-12 of 1: the rule of
    ``realize.run_filter`` and ``cli.bank_from_payload``."""
    if abs(a[0] - 1.0) > 1e-12:
        raise ValueError(message)


def unstable_reflection(a: np.ndarray) -> Optional[float]:
    """None when every root of the polynomial a (descending powers, a[0]
    nonzero) lies inside the unit circle, that is when each reflection
    coefficient k of its step-down (Schur-Cohn) recursion has |k| < 1;
    otherwise the first k with |k| >= 1.  The float64 step-down decides
    that a is stable, unless a k comes within its error bound
    (STEP_DOWN_MARGIN) of 1; then the exact step-down decides, so the
    answer is exact for the float64 a."""
    a = np.asarray(a, dtype=float).tolist()
    coeffs = [v / a[0] for v in a]
    bound = STEP_DOWN_MARGIN * sum(map(abs, coeffs))
    for m in range(len(a) - 1, 0, -1):
        k = coeffs[m]
        gap = 1.0 - abs(k)
        if gap <= bound:
            return _exact_unstable_reflection(a)
        bound /= gap
        coeffs = [(coeffs[j] - k * coeffs[m - j]) / (1.0 - k * k)
                  for j in range(m)]
    return None


def _exact_unstable_reflection(a: list) -> Optional[float]:
    """unstable_reflection in exact arithmetic: the float64 entries of a as
    integers over their common power-of-two denominator, and the step-down
    fraction-free, each step divided by the gcd of its coefficients (about
    a tenth of the time of the same step-down on Fractions)."""
    ratios = [v.as_integer_ratio() for v in a]
    scale = max(den for _, den in ratios)
    n = [num * (scale // den) for num, den in ratios]
    for m in range(len(n) - 1, 0, -1):
        if abs(n[m]) >= abs(n[0]):
            return n[m] / n[0]
        n = [n[0] * n[j] - n[m] * n[m - j] for j in range(m)]
        gcd = math.gcd(*n)
        n = [v // gcd for v in n]
    return None


def basis_derivative_column(p, omega_d: float, K: int) -> np.ndarray:
    """Frequency derivatives 0..K-1 of psi(w) = e^{iw}/(e^{iw}-p) at omega_d.

    p is an array of P poles; the result is (K, P), with the column of
    p[j] in column j.  Entry k equals (d/dw)^k psi(w) |_{w=omega_d},
    computed as i^k * sum_l (-1)^l alpha_{k,l} psi^{l+1}.  psi and its
    powers are formed for all poles at once, and each signed row of
    alpha_table(K) meets the powers of all poles in one stacked matmul of
    (1 x L)(L x 1) products, which NumPy hands to the BLAS dot that np.dot
    of the two vectors calls: each entry is bit for bit its own np.dot
    (verified with NumPy 2.4.6 and its OpenBLAS).  A single alpha @ powers
    product would take the gemm path, which rounds differently and moves
    the optimal delay of the worst-conditioned specs.
    """
    z = np.exp(1j * omega_d)
    psi = z / constraint_gap(z, np.asarray(p, dtype=complex))
    # Row j holds psi_j^1, ..., psi_j^K; row k of alpha reads a prefix.
    powers = psi.reshape(-1, 1) ** np.arange(1, K + 1)
    alpha = (alpha_table(K) * (-1.0) ** np.arange(K)).astype(complex)
    out = np.array([np.matmul(alpha[k, :k + 1], powers[:, :k + 1, None])[:, 0]
                    for k in range(K)])
    out *= (1j ** np.arange(K))[:, None]
    return out


def dc_targets(q: float, t_s: float, k_w_dc: int, k_t: int) -> np.ndarray:
    """Passband (dc) constraint targets for derivative order k_t.

    Entry k_w is i^{k_w} (-q)^{k_w-k_t} (1/T_s)^{k_t} k_w!/(k_w-k_t)! for
    k_w >= k_t and zero otherwise.
    """
    if not 0 <= k_t < k_w_dc:
        raise ValueError("require 0 <= k_t < K_w_dc")
    d = np.zeros(k_w_dc, dtype=complex)
    try:
        for kw in range(k_t, k_w_dc):
            ratio = math.factorial(kw) // math.factorial(kw - k_t)
            d[kw] = ((1j) ** kw * (-q) ** (kw - k_t) * (1.0 / t_s) ** k_t
                     * ratio)
    except OverflowError as exc:
        raise NumericalError("dc constraint target (-q)^k_w (1/T_s)^k_t "
                             f"overflows at q = {q!r}, T_s = {t_s!r}") from exc
    return d


def constraint_blocks(spec: DesignSpec) -> Tuple[Tuple[float, int], ...]:
    """The (omega, count) row blocks of the constraint system.

    Ordered dc, -omega_nb, +omega_nb, pi; blocks with no constraints are
    left out.
    """
    blocks = [(0.0, spec.k_w_dc)]
    if spec.k_w_nb > 0:
        w_nb = spec.omega_nb
        if w_nb <= 0.0 or abs(w_nb - np.pi) < 1e-12:
            raise NumericalError("degenerate narrowband frequency: use the dc "
                                 "or pi constraint blocks instead")
        blocks += [(-w_nb, spec.k_w_nb), (w_nb, spec.k_w_nb)]
    blocks.append((np.pi, spec.k_w_pi))
    return tuple((w, n) for (w, n) in blocks if n > 0)


def _warn_ill_conditioned(cond: float) -> None:
    if cond > COND_WARN:
        warnings.warn("ill-conditioned constraint system: condition estimate "
                      f"{cond:.3e}", IllConditionedSystem)


def gram_matrix(poles: np.ndarray) -> np.ndarray:
    """Gram matrix of the causal basis impulse responses.

    S_{a,b} = sum_{m>=0} conj(p_a)^m p_b^m = 1/(1 - conj(p_a) p_b).
    """
    poles = np.asarray(poles, dtype=complex)
    if np.any(np.abs(poles) >= 1.0):
        raise ValueError("Gram matrix undefined for non-causal basis")
    return 1.0 / (1.0 - np.conj(poles)[:, None] * poles[None, :])


@dataclass(frozen=True, eq=False)
class ConstraintBasis:
    """What the designs of one constraint set share, whatever q and K_t.

    psi holds the constraint rows of the basis over poles, one block per
    entry of blocks (see constraint_blocks), with its condition estimate;
    s is the Gram matrix of a causal set (None for a two-sided one).  spec
    fixes the set; its K_t and group delay are not read.  The optimal delay
    of each output is searched on its first request and kept, and so are
    the designs solved on it for its last few (q, K_t) pairs, and the
    step-down verdict (unstable_reflection) of each half's rounded a,
    which depends on the poles alone.
    """

    spec: DesignSpec
    poles: np.ndarray
    psi: np.ndarray
    blocks: Tuple[Tuple[float, int], ...]
    condition: float
    s: Optional[np.ndarray]
    _optima: Dict[int, Optional[float]] = field(default_factory=dict,
                                                init=False, repr=False)
    _solved: Dict[Tuple[float, float, int], tuple] = field(
        default_factory=dict, init=False, repr=False)
    _reflections: Dict[str, Optional[float]] = field(
        default_factory=dict, init=False, repr=False)

    @classmethod
    def from_poles(cls, spec: DesignSpec,
                   poles: np.ndarray) -> "ConstraintBasis":
        """Build the basis of spec's constraint set over poles, without a
        warning."""
        K = spec.total_constraints
        if len(poles) != K:
            raise ValueError("pole count must equal the constraint count K")
        blocks = constraint_blocks(spec)

        # One basis_derivative_column call per block, over all poles.
        psi = np.concatenate([basis_derivative_column(poles, w_d, count)
                              for w_d, count in blocks])
        s = gram_matrix(poles) if spec.causal else None
        return cls(spec, poles, psi, blocks, float(np.linalg.cond(psi)), s)

    def system(self, q: float, k_t: int) -> ConstraintSystem:
        """Psi C = D for delay q and k_t outputs: column k of D holds the
        dc targets of derivative order k over zero nb/pi rows."""
        spec = self.spec
        d = np.zeros((spec.total_constraints, k_t), dtype=complex)
        for kt in range(k_t):
            d[:spec.k_w_dc, kt] = dc_targets(q, spec.t_s, spec.k_w_dc, kt)
        return ConstraintSystem(psi=self.psi, d=d)

    def optimal_delay(self, k_t: int = 0) -> float:
        """Delay minimizing the WNG polynomial of output k_t.

        Among real roots of P(q) = dSigma/dq (imaginary part below
        TOL_CPX), picks the one with the lowest Sigma; ties within TOL_WNG
        go to the smallest delay.  A delay-independent WNG yields q = 0 and
        a warning, on every call.
        """
        if k_t not in self._optima:
            self._optima[k_t] = _wng_minimum(*wng_polynomial(self, k_t))
        q = self._optima[k_t]
        if q is None:
            warnings.warn("delay-independent WNG — any q admissible; "
                          "returning 0", UserWarning)
            return 0.0
        return q

    def _banks(self, q: float, k_t: int) -> Tuple[FilterbankDesign, ...]:
        """The designs _solve_banks(self, q, k_t), kept as they are for the
        last _BANKS_PER_BASIS (q, K_t) pairs, oldest out first, and handed
        out to every caller.  The key holds q's sign too, so that a design
        at q = -0.0 keeps its -0.0.  A failing solve is kept as its
        NumericalError's class and message, which hold no traceback, and
        every call raises a fresh error of them.  Warnings come from
        constraint_basis and optimal_delay, which run before it on every
        call; the solve itself raises none."""
        key = q, math.copysign(1.0, q), k_t
        banks = self._solved.get(key)
        if banks is None:
            try:
                banks = _solve_banks(self, q, k_t)
            except NumericalError as exc:
                banks = type(exc), str(exc)
            if len(self._solved) == _BANKS_PER_BASIS:
                del self._solved[next(iter(self._solved))]
            self._solved[key] = banks
        if isinstance(banks[0], type):  # a stored failure
            raise banks[0](banks[1])
        return banks


def assemble_system(spec: DesignSpec, poles: np.ndarray,
                    q: Optional[float] = None) -> ConstraintSystem:
    """Build the square constraint system Psi C = D over poles.

    ConstraintBasis.from_poles(spec, poles).system(q, spec.k_t).  When q
    is omitted, a numeric spec.group_delay is used (0 for the "optimal"
    sentinel, since Psi does not depend on q).  Warns IllConditionedSystem
    when the condition estimate exceeds COND_WARN.
    """
    basis = ConstraintBasis.from_poles(spec, poles)
    _warn_ill_conditioned(basis.condition)
    if q is None:
        q = spec.group_delay if not isinstance(spec.group_delay, str) else 0.0
    return basis.system(float(q), spec.k_t)


def _solve(psi: np.ndarray, d: np.ndarray) -> np.ndarray:
    try:
        c = np.linalg.solve(psi, d)
        # One step of iterative refinement keeps the residual small even
        # when Psi is badly conditioned (it is Vandermonde-like in K).
        c = c + np.linalg.solve(psi, d - psi @ c)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("degenerate constraint set: constraint matrix "
                             "is singular") from exc
    return c


def solve_coefficients(system: ConstraintSystem) -> np.ndarray:
    """Coefficient matrix C with Psi C = D, within the residual bound
    RESIDUAL_RTOL (1 + max |D|)."""
    psi, d = system.psi, system.d
    c = _solve(psi, d)
    res = np.max(np.abs(psi @ c - d))
    bound = RESIDUAL_RTOL * (1.0 + np.max(np.abs(d)))
    if res > bound:
        raise NumericalError("degenerate constraint set: solve residual "
                             f"{res:.3e} exceeds {bound:.3e}")
    return c


def _real_wng(values: np.ndarray) -> np.ndarray:
    """The real part of WNG values, after checking that their imaginary
    residue, relative to max(1, max |values|), is below TOL_CPX."""
    resid = float(np.max(np.abs(values.imag)))
    resid /= max(1.0, float(np.max(np.abs(values))))
    if resid > TOL_CPX:
        raise NumericalError("non-real WNG — design inconsistency "
                             f"(imaginary residue {resid:.3e})")
    return values.real


def white_noise_gain(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """White-noise cross-gain matrix Sigma = C^H S C, coerced to real.  A
    Sigma out of floating-point range raises NumericalError, not a
    warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = c.conj().T @ s @ c
    if not np.isfinite(sigma).all():
        raise NumericalError("white-noise gain C^H S C overflows: the "
                             "coefficients are out of floating-point range")
    return _real_wng(sigma)


def wng_polynomial(basis: ConstraintBasis,
                   k_t: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """WNG of output k_t as a polynomial in the group delay q.

    Returns (sigma_poly, p_poly) as ascending-power real coefficient arrays:
    Sigma(q) and its formal derivative P(q).  Only the dc targets depend on
    q, so with Phi = the dc columns of Psi^{-1} and J = Phi^H S Phi (Psi and
    S of the causal basis),

        Sigma(q) = sum_{a,b >= k_t} conj(g_a) g_b J[a,b] q^{a+b-2 k_t},

    where g_k collects the q-independent factor (-i)^k (1/T_s)^{k_t}
    k!/(k-k_t)! of the dc target of row k.
    """
    spec = basis.spec
    if not 0 <= k_t < spec.k_w_dc:
        raise ValueError("require 0 <= k_t < K_w_dc")
    if basis.s is None:
        raise ValueError("the WNG polynomial needs a causal basis")
    phi = _solve(basis.psi, np.eye(spec.total_constraints,
                                   dtype=complex))[:, :spec.k_w_dc]
    j = phi.conj().T @ basis.s @ phi

    kdc = spec.k_w_dc
    deg = 2 * (kdc - 1 - k_t)
    scale = (1.0 / spec.t_s) ** k_t
    g = np.array([(-1j) ** k * scale
                  * (math.factorial(k) // math.factorial(k - k_t))
                  for k in range(k_t, kdc)])
    # Every (k_a, k_b) term at once, scattered onto its power in the order
    # of a k_a-then-k_b loop, so that each coefficient sums its terms in
    # that order.
    terms = np.conj(g)[:, None] * g * j[k_t:, k_t:]
    powers = np.add.outer(np.arange(len(g)), np.arange(len(g)))
    coeffs = np.zeros(deg + 1, dtype=complex)
    np.add.at(coeffs, powers.ravel(), terms.ravel())
    sigma_poly = _real_wng(coeffs)
    p_poly = np.polynomial.polynomial.polyder(sigma_poly) if deg > 0 \
        else np.zeros(1)
    return sigma_poly, np.atleast_1d(p_poly)


def _wng_minimum(sigma_poly: np.ndarray,
                 p_poly: np.ndarray) -> Optional[float]:
    """The delay ConstraintBasis.optimal_delay keeps for a WNG polynomial
    (see wng_polynomial); None for a delay-independent WNG."""
    if np.all(np.abs(p_poly) < 1e-14):
        return None
    roots = np.polynomial.polynomial.polyroots(p_poly)
    real_roots = np.sort(roots[np.abs(roots.imag) < TOL_CPX].real)
    if len(real_roots) == 0:
        raise NumericalError("WNG derivative has no real roots")
    w = np.polynomial.polynomial.polyval(real_roots, sigma_poly)
    tied = real_roots[w <= w.min() + TOL_WNG]
    return float(tied.min())


def transfer_coefficients(c: np.ndarray,
                          poles: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand sum_k c_k z / (z - p_k) into numerator/denominator polynomials.

    c is a K x K_t matrix with one column per output.  Returns (b, a) in
    descending powers of z: a is real, monic and of length K+1; b is real,
    K_t x (K+1) with one row per output, and its last column is 0.

    The expansion runs in extended precision, because the product
    accumulation is the accuracy bottleneck for clustered pole sets.  The
    designs reach it only when their basis has not kept them (see
    design_filterbank).
    """
    poles_hp = np.asarray(poles, dtype=np.clongdouble)
    K = len(poles_hp)
    a_hp = np.ones(1, dtype=np.clongdouble)
    for p in poles_hp:
        a_hp = np.convolve(a_hp, np.array([1.0, -p], dtype=np.clongdouble))
    a = np.asarray(a_hp.real, dtype=float)
    a[0] = 1.0
    cols = np.asarray(c, dtype=np.clongdouble).T
    # terms[:, :, k] is [c_k, 0] times each (z - p_j), j != k, in
    # increasing j, for all outputs at once (expanding the cofactor first
    # and scaling it by c_k would round differently).  Step s multiplies
    # every term by p_s for k > s and by p_{s+1} for k <= s: row s of
    # factors, applied to one contiguous slice.
    steps, ks = np.arange(K - 1)[:, None], np.arange(K)[None, :]
    factors = np.where(ks > steps, poles_hp[:-1, None], poles_hp[1:, None])
    terms = np.zeros((K + 1, len(cols), K), dtype=np.clongdouble)
    terms[0] = cols
    for step, factor in enumerate(factors):
        terms[1:step + 2] -= factor * terms[:step + 1]
    # Summed in k order: axis 0 of the transposed copy.
    b = np.ascontiguousarray(terms.transpose(2, 1, 0)).sum(axis=0)
    resid = max(float(np.max(np.abs(a_hp.imag))),
                float(np.max(np.abs(b.imag))))
    if resid > TOL_CPX:
        raise NumericalError("transfer coefficients have imaginary residue "
                             f"{resid:.3e} — design inconsistency")
    b = np.asarray(b.real, dtype=float)
    b[:, K] = 0.0
    return b, a


def _build_basis(f_s: float, f_wb: float, f_nb: Optional[float],
                 k_w_dc: int, k_w_nb: int, k_w_pi: int,
                 causal: bool) -> ConstraintBasis:
    spec = DesignSpec(f_s=f_s, f_wb=f_wb, f_nb=f_nb, k_w_dc=k_w_dc,
                      k_w_nb=k_w_nb, k_w_pi=k_w_pi, k_t=1, group_delay=0.0,
                      causal=causal)
    K = spec.total_constraints
    if causal:
        poles = causal_z_poles(K, spec.omega_wb * spec.f_s, spec.t_s)
    else:
        poles = full_z_poles(K // 2, spec.omega_wb * spec.f_s, spec.t_s)
        if np.any(np.abs(np.abs(poles) - 1.0) < 1e-9):
            raise NumericalError("marginal pole — cannot split")
    basis = ConstraintBasis.from_poles(spec, poles)
    for array in (basis.poles, basis.psi, basis.s):
        if array is not None:
            array.flags.writeable = False
    return basis


#: Bases with at most this many constraints are memoized, and so are the
#: designs solved on them.
_MEMO_MAX_K = 16
#: The memo holds at most this many bases, least recently used out first,
#: and each basis keeps the designs of its last _BANKS_PER_BASIS (q, K_t)
#: pairs (ConstraintBasis._banks), which go with it.  Measured with
#: tracemalloc, a basis of K = 16 holds at most 10.3 KB (causal: Psi and
#: S 4 KB each) and a kept entry at most 16.7 KB (the two halves of a
#: two-sided design of K = K_t = 16), so the memo never holds more than
#: 96 x (10.3 + 6 x 16.7) KB, about 10.6 MB.  The benchmark's design-sweep
#: grid has 44 constraint sets of at most 6 (q, K_t) pairs each, and each
#: round adds 32 drawn sets, which fit beside them: after three rounds
#: the memo holds 0.85 MB.
_MEMO_SIZE = 96
_BANKS_PER_BASIS = 6
# typed: equal numbers of other types (1000 and np.float32(1000)) compute
# other poles.  A basis build that raises is not stored, so a set whose
# basis fails fails each time.
_memo_basis = functools.lru_cache(maxsize=_MEMO_SIZE,
                                  typed=True)(_build_basis)


def constraint_basis(spec: DesignSpec) -> ConstraintBasis:
    """The basis of spec's constraint set over its Butterworth poles.

    It depends only on F_s, f_wb, f_nb (when K_w_nb > 0), the constraint
    counts and causality, so it comes from a bounded memo when K is small;
    its arrays are read-only.  Warns IllConditionedSystem as
    assemble_system does, on every call.
    """
    build = _memo_basis if spec.total_constraints <= _MEMO_MAX_K \
        else _build_basis
    basis = build(spec.f_s, spec.f_wb,
                  spec.f_nb if spec.k_w_nb > 0 else None, spec.k_w_dc,
                  spec.k_w_nb, spec.k_w_pi, spec.causal)
    _warn_ill_conditioned(basis.condition)
    return basis


def _solve_banks(basis: ConstraintBasis, q: float,
                 k_t: int) -> Tuple[FilterbankDesign, ...]:
    """The design of a causal basis solved for delay q and k_t outputs, or
    the (forward, backward) halves of a two-sided one (noncausal_design).
    A bank whose rounded a fails the step-down test (unstable_reflection)
    raises NumericalError, although its poles lie inside the unit circle:
    at poles this close to z = 1, a's float64 rounding moves them out.
    Each half's a depends on the basis's poles alone, so the basis keeps
    each half's verdict and tests each a once, whatever q and K_t."""
    def bank(poles, c, sigma, a, b, half=""):
        if half not in basis._reflections:
            basis._reflections[half] = unstable_reflection(a)
        k = basis._reflections[half]
        if k is not None:
            raise NumericalError(
                f"unstable design: the float64 denominator a{half} has a "
                f"root on or outside the unit circle (step-down reflection "
                f"coefficient {k:.6g})")
        return FilterbankDesign(poles=poles, c=c, q=q, sigma=sigma, a=a, b=b,
                                t_s=basis.spec.t_s, condition=basis.condition)

    c = solve_coefficients(basis.system(q, k_t))
    if basis.s is not None:
        sigma = white_noise_gain(c, basis.s)
        b, a = transfer_coefficients(c, basis.poles)
        return (bank(basis.poles, c, sigma, a, b),)

    inside = np.abs(basis.poles) < 1.0
    p_in, c_in = basis.poles[inside], c[inside, :]
    r = 1.0 / basis.poles[~inside]
    # The products -c r are formed in extended precision, because the
    # expansion sums them with cancellation; the bank keeps their rounding.
    c_b_hp = -c[~inside, :].astype(np.clongdouble) * r[:, None]
    c_b = c_b_hp.astype(complex)
    sigma_b = white_noise_gain(c_b, gram_matrix(r))
    b_f, a_f = transfer_coefficients(c_in, p_in)
    sigma_f = white_noise_gain(c_in, gram_matrix(p_in)) + sigma_b
    # The expansion of sum_k c_b z/(z - r) ends in an exact 0, so the
    # one-sample delay is a roll.
    b_z, a_b = transfer_coefficients(c_b_hp, r)
    return (bank(p_in, c_in, sigma_f, a_f, b_f, " of the forward half"),
            bank(r, c_b, sigma_b, a_b, np.roll(b_z, 1, axis=1),
                 " of the backward half"))


def design_filterbank(spec: DesignSpec) -> FilterbankDesign:
    """Solve a causal filterbank design end to end.

    The steps: the basis of the constraint set (constraint_basis), the
    delay q, the coefficients solve_coefficients(basis.system(q, K_t)), the
    white-noise gain and the b/a expansion.  With group_delay = "optimal"
    the smoother-optimal delay basis.optimal_delay() is applied to every
    output; basis.optimal_delay(k_t) gives the delay that would be optimal
    for output k_t alone.

    Designs that share a constraint set share its memoized basis, and
    those that also share q and K_t are one design, which the basis keeps
    and hands out as it is, every array read-only.  The basis and the
    delay are taken on every call, so outputs, warnings and errors are
    those of a fresh build.
    """
    if not spec.causal:
        raise ValueError("use noncausal_design for causal=False specs")
    basis = constraint_basis(spec)
    if isinstance(spec.group_delay, str):  # the "optimal" sentinel
        q = basis.optimal_delay()
    else:
        q = float(spec.group_delay)
    return basis._banks(q, spec.k_t)[0]


def noncausal_design(spec: DesignSpec) -> Tuple[FilterbankDesign,
                                                FilterbankDesign]:
    """Solve a zero-delay design over all 2K Butterworth poles and split it.

    The 2K-term partial fraction is split by pole radius into two causal
    banks, returned as (forward, backward).  The forward bank holds the
    poles inside the unit circle and their terms.  On the time-reversed
    axis (z -> 1/z) each outside term c z/(z - p) is -c r/(z - r) with
    r = 1/p: the term c_b z/(z - r), c_b = -c r, one sample late.  The
    backward bank holds r and c_b, its b is their expansion delayed one
    sample, and it runs on time-reversed input (realize.run_noncausal).
    Each bank's sigma is the white-noise gain of its own terms, except that
    the forward sigma holds the total of both.

    The 2K poles and Psi come from constraint_basis(spec), and the
    coefficients from solve_coefficients(basis.system(q, K_t)), as in
    design_filterbank; the basis keeps both halves as one entry and hands
    them out as they are, every array read-only.
    """
    if spec.causal:
        raise ValueError("noncausal_design requires a causal=False spec")
    K = spec.total_constraints
    if K % 2 != 0:
        raise ValueError("non-causal designs need an even constraint count "
                         "(2K basis functions)")
    if isinstance(spec.group_delay, str):
        raise ValueError("non-causal designs require a numeric group delay "
                         "(conventionally 0)")
    q = float(spec.group_delay)
    basis = constraint_basis(spec)
    return basis._banks(q, spec.k_t)
