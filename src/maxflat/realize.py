"""State-space and difference-equation realizations of a filterbank design.

Three equivalent forms are provided: the diagonal canonical form (DCF,
complex arithmetic, poles on the diagonal), the controller canonical form
(CCF, fully real companion matrix), and the derivative state form (DSF, a
similarity transform of the DCF whose first K_t states are the filterbank
outputs themselves).  All obey the recursion

    w[n] = G w[n-1] + H x[n],      y[n] = C w[n],

i.e. the output taps the state *after* the update.  ``run_lss`` runs a form
from rest.  ``run_filter`` runs one difference equation: it calls the
compiled kernel of SciPy's ``lfilter`` without ``scipy.signal``.
``run_bank`` runs every output of a bank through one all-pole
``run_filter`` pass over the shared denominator and forms the numerators
in one matrix product.  ``run_noncausal`` runs one output of a two-sided
design.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .design import TOL_CPX, FilterbankDesign


def _load_sigtools():
    """``scipy.signal._sigtools``, loaded without ``scipy/signal/__init__``
    under its own name, which ``import scipy.signal`` then reuses (SciPy
    1.17.1 verified)."""
    name = "scipy.signal._sigtools"
    if name not in sys.modules:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            raise ImportError("realize needs SciPy for the filter kernel "
                              "of lfilter, and SciPy cannot be imported",
                              name="scipy")
        path = os.path.join(os.path.dirname(scipy_spec.origin), "signal",
                            "_sigtools" + EXTENSION_SUFFIXES[0])
        if not os.path.isfile(path):
            from importlib.metadata import version
            raise ImportError(f"no filter kernel at {path} "
                              f"(SciPy {version('scipy')})", name=name)
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_linear_filter = _load_sigtools()._linear_filter

DCF = "DCF"
CCF = "CCF"
DSF = "DSF"


@dataclass(frozen=True)
class StateSpaceRealization:
    """One (G, H, C) realization of a filterbank design."""

    form: str
    g: np.ndarray
    h: np.ndarray
    c: np.ndarray
    complex_arithmetic: bool

    @property
    def order(self) -> int:
        return self.g.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]


def to_dcf(design: FilterbankDesign) -> StateSpaceRealization:
    """Diagonal canonical form: G = diag(p), H = 1, C = coefficient rows."""
    g = np.diag(design.poles)
    h = np.ones(design.order, dtype=complex)
    c = design.c.T.copy()  # row k_t holds the coefficients of output k_t
    return StateSpaceRealization(DCF, g, h, c, complex_arithmetic=True)


def to_ccf(design: FilterbankDesign) -> StateSpaceRealization:
    """Controller canonical form: real companion matrix of the denominator."""
    K = design.order
    g = np.zeros((K, K))
    g[0, :] = -design.a[1:]
    if K > 1:
        g[1:, :-1] = np.eye(K - 1)
    h = np.zeros(K)
    h[0] = 1.0
    c = design.b[:, :K]  # a read-only view: b without its zero column
    return StateSpaceRealization(CCF, g, h, c, complex_arithmetic=False)


def to_dsf(design: FilterbankDesign) -> StateSpaceRealization:
    """Derivative state form: transform the DCF so the leading states are
    the outputs and C becomes the first K_t rows of the identity."""
    dcf = to_dcf(design)
    K, kt = design.order, design.n_outputs
    c_aug = np.eye(K, dtype=complex)
    c_aug[:kt, :] = dcf.c
    try:
        t_inv = c_aug  # w_dsf = C_aug w_dcf, so the transform inverse is C_aug
        t = np.linalg.inv(c_aug)
    except np.linalg.LinAlgError as exc:
        raise ValueError("DSF transform unavailable for this design") from exc
    g = t_inv @ dcf.g @ t
    h = t_inv @ dcf.h
    c = np.eye(K, dtype=complex)[:kt, :]
    return StateSpaceRealization(DSF, g, h, c, complex_arithmetic=True)


def run_lss(realization: StateSpaceRealization, x: np.ndarray) -> np.ndarray:
    """Run a realization from rest, one sample at a time; returns an
    (len(x), K_t) output array.  A complex form (DCF, DSF) must give real
    output: an imaginary residue above TOL_CPX raises ValueError."""
    g, h, c = realization.g, realization.h, realization.c
    w = np.zeros(realization.order,
                 dtype=complex if realization.complex_arithmetic else float)
    y = np.empty((len(x), realization.n_outputs), dtype=w.dtype)
    for n, xn in enumerate(x):
        w = g @ w + h * float(xn)
        y[n] = c @ w
    if realization.complex_arithmetic:
        resid = float(np.max(np.abs(y.imag))) if y.size else 0.0
        if resid > TOL_CPX:
            raise ValueError("complex realization produced non-real "
                             f"output (imaginary residue {resid:.3e})")
        y = y.real
    return y


def run_filter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Direct-form difference equation with zero history before n = 0:

        y[n] = sum_k b[k] x[n-k] - sum_{k>=1} a[k] y[n-k],

    along the last axis of x, so each row of a 2-D input is filtered on
    its own, exactly as a 1-D call on that row.  For len(a) > 1 this is
    the kernel call of ``scipy.signal.lfilter(b, a, x)``, bit for bit.
    b and a must be non-empty 1-D arrays, which the kernel does not check;
    the ValueError raised otherwise words it as ``lfilter`` does.  The
    kernel copies a read-only x before filtering it (a (2, 100 000)
    input then takes twice the memory and about twice the time), so
    ``tracker``'s draw and scenario memos keep their arrays writeable and
    private, and ``run_tracking_mc`` hands out read-only views.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    if not (b.ndim == 1 and b.size > 0):
        raise ValueError("Parameter b is not a non-empty 1d array, "
                         f"since {b.shape=}!")
    if not (a.ndim == 1 and a.size > 0):
        raise ValueError("Parameter a is not a non-empty 1d array, "
                         f"since {a.shape=}!")
    if abs(a[0] - 1.0) > 1e-12:
        raise ValueError("denominator must be monic (a[0] = 1)")
    return _linear_filter(b, a, np.asarray(x, dtype=float), -1)


def run_noncausal(forward: FilterbankDesign, backward: FilterbankDesign,
                  x: np.ndarray, k_t: int = 0, span=None) -> np.ndarray:
    """Apply a split non-causal design: forward pass plus a time-reversed
    backward pass (filter the reversed input, reverse the result), along
    the last axis of x.  With span = (first, last), it returns output
    samples first, ..., last only, bit for bit those of the whole row: the
    forward pass runs up to last, and the backward pass from the row end
    down to first.  A span must satisfy 0 <= first <= last < n, for rows
    of n samples; otherwise ValueError."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    first, last = (0, n - 1) if span is None else span
    if span is not None and not 0 <= first <= last < n:
        raise ValueError(f"span {span} does not lie within the {n} "
                         "samples of a row")
    y = run_filter(forward.b[k_t], forward.a, x[..., :last + 1])[..., first:]
    back = run_filter(backward.b[k_t], backward.a, x[..., first:][..., ::-1])
    y += back[..., ::-1][..., :last + 1 - first]
    return y


def run_bank(design: FilterbankDesign, x: np.ndarray,
             first: int = 0) -> np.ndarray:
    """Every output of a bank, over samples first, ..., n - 1 along the
    last axis of x: a (K_t,) + x.shape[:-1] + (n - first,) array.

    The outputs share the denominator a, so one all-pole pass
    w = ``run_filter([1], a, x)`` serves them all.  Output k_t is then
    sum_j b[k_t, j] w[n - j], with w zero before n = 0, formed for every
    output in one matrix product of the taps and a stack of delayed w, one
    row per tap and one column per output sample.  A spare zero column,
    and a spare zero row for a one-output bank, give the product at least
    two rows and two columns, so NumPy hands it to BLAS gemm,
    which forms each sample with the same operations wherever it lies: the
    samples are bit for bit those of the whole rows, however far x runs
    and wherever first lies (verified with NumPy 2.4.6 and its OpenBLAS).
    A single row or column would take the gemv path, which rounds
    differently.  Trailing zero taps (column K of a causal bank's b) are
    skipped, so a bank whose numerators are all zero has no taps and gives
    zeros.  first must satisfy 0 <= first < n; otherwise ValueError.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if not 0 <= first < n:
        raise ValueError(f"first sample {first} does not lie within the "
                         f"{n} samples of a row")
    kt, m = len(design.b), n - first
    used = design.b.any(axis=0).nonzero()[0]
    n_taps = int(used[-1]) + 1 if len(used) else 0
    taps = np.zeros((max(kt, 2), n_taps))
    taps[:kt] = design.b[:, :n_taps]
    w = run_filter([1.0], design.a, x)
    cols = m * (x.size // n)
    stack = np.empty((n_taps, cols + 1))
    stack[:, cols] = 0.0
    delayed = stack[:, :cols].reshape((n_taps,) + x.shape[:-1] + (m,))
    for j in range(n_taps):
        lead = min(max(j - first, 0), m)   # output samples before w[0]
        delayed[j, ..., :lead] = 0.0
        delayed[j, ..., lead:] = w[..., first + lead - j:n - j]
    y = (taps @ stack)[:kt, :cols]
    return y.reshape((kt,) + x.shape[:-1] + (m,))
