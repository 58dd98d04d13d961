"""Second-order damped-oscillator process simulation.

The continuous process is a unit-energy damped sinusoid shaped by the
state-space model

    dv/dt = A v + B x,   y = C v,
    A = [[0, 1], [-(sigma^2 + Omega^2), 2 sigma]],  B = [0, 1]^T,
    C = [b0, 0],   b0 = sqrt(-4 sigma (sigma^2 + Omega^2)),

with sigma = -1/tau_c and Omega = 2 pi / lambda_c.  Driving it with a
rectangular pulse gives a deterministic transient; driving it with white
noise gives stationary coloured noise of power P_c.  Discretization uses
the exact zero-order-hold closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .realize import run_filter


@dataclass(frozen=True)
class ProcessParams:
    """Coherence duration tau_c and wave period lambda_c, both in seconds,
    each a positive finite number: otherwise ValueError."""

    tau_c: float
    lambda_c: float

    def __post_init__(self) -> None:
        for name in ("tau_c", "lambda_c"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be a positive finite number")

    @property
    def sigma_c(self) -> float:
        return _rates(self.tau_c, self.lambda_c)[0]

    @property
    def omega_c(self) -> float:
        return _rates(self.tau_c, self.lambda_c)[1]

    @property
    def b0(self) -> float:
        return float(_rates(self.tau_c, self.lambda_c)[2])


def _rates(tau_c, lambda_c):
    """sigma_c, Omega_c and b0 of ``ProcessParams``, elementwise over
    scalar or array tau_c and lambda_c."""
    s = -1.0 / tau_c
    w = 2.0 * np.pi / lambda_c
    return s, w, np.sqrt(-4.0 * s * (s * s + w * w))


@dataclass(frozen=True)
class DiscreteProcess:
    """Zero-order-hold discretization w[n] = G w[n-1] + H x[n], y = C w."""

    g: np.ndarray
    h: np.ndarray
    c: np.ndarray
    t_s: float

    def transfer(self) -> tuple[np.ndarray, np.ndarray]:
        """Equivalent (b, a) difference-equation coefficients."""
        a1 = -float(np.trace(self.g))
        a2 = float(np.linalg.det(self.g))
        b0 = float(self.c @ self.h)
        b1 = float(self.c @ self.g @ self.h) + a1 * b0
        return np.array([b0, b1, 0.0]), np.array([1.0, a1, a2])


@dataclass(frozen=True)
class InputSpec:
    """Driving input: a rectangular deterministic pulse or white noise over
    samples [n0, n1], with power P_c."""

    kind: Literal["deterministic", "stochastic"]
    n0: int
    n1: int
    power: float

    def __post_init__(self) -> None:
        if self.kind not in ("deterministic", "stochastic"):
            raise ValueError("kind must be deterministic or stochastic")
        if self.n0 > self.n1:
            raise ValueError("n0 <= n1 violated")
        if self.power < 0:
            raise ValueError("power must be nonnegative")


def check_nonnegative_int(value, name: str) -> int:
    """A seed or a count as a Python int, so that a NumPy integer and the
    equal int are one memo key.  None (fresh OS entropy, as a seed, that a
    memo would freeze), a bool, a float, a string or a negative number
    raises ValueError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, "
                         f"got {value!r}")
    return int(value)


def discretize_process(params: ProcessParams, t_s: float) -> DiscreteProcess:
    """Exact zero-order-hold (G, H) of the oscillator over one T_s."""
    if t_s <= 0:
        raise ValueError("T_s must be positive")
    g, h = _zoh(params.sigma_c, params.omega_c, t_s)
    c = np.array([params.b0, 0.0])
    return DiscreteProcess(g=np.array(g), h=np.array(h), c=c, t_s=t_s)


def _zoh(s, w, t_s: float):
    """Entries of the exact zero-order-hold G (2 x 2) and H (2) over one
    T_s, elementwise over scalar or array sigma_c and Omega_c."""
    e = np.exp(s * t_s)
    cw, sw = np.cos(w * t_s), np.sin(w * t_s)
    r2 = s * s + w * w
    g0 = (e * (cw - (s / w) * sw), (1.0 / w) * e * sw)
    h = ((1.0 - g0[0]) / r2, g0[1])
    return (g0, (-(r2 / w) * e * sw, e * (cw + (s / w) * sw))), h


def oscillator_response(tau_c: np.ndarray, lambda_c: np.ndarray, t_s: float,
                        u: np.ndarray, n_samples: int,
                        n_out: Optional[int] = None) -> np.ndarray:
    """Outputs of the discretized processes of parameters tau_c[i] and
    lambda_c[i] (1-D arrays), row i driven from rest by the input row u[i]
    over samples [0, L): the first n_out samples (all by default) of the
    response over n_samples >= L, 0 <= n_out <= n_samples.

    Evaluated in closed form rather than by a recursion.  Over k samples
    the transition is G^k = exp(A k T_s)
    = e^{sigma k T_s} [cos(Omega k T_s) I + sin(Omega k T_s)/Omega (A - sigma I)],
    so the response to a unit input is C G^k H = b0 Re(beta e^{mu k}) with
    mu = (sigma + i Omega) T_s, beta = h_0 - i (h_1 - sigma h_0) / Omega
    and H the exact ZOH input vector of ``discretize_process``.  Summing
    over the input, y[k] = Re(e^{mu k} P_min(k, L-1)) with
    P_j = b0 beta sum_{m <= j} u[m] e^{-mu m}.  It agrees with the
    state recursion w[n] = G w[n-1] + H u[n], y[n] = C w[n] to about 1e-14
    of each row's peak.  The tables of exponentials are sized by
    n_samples, and only the rows of them that the first n_out samples
    need are formed, so those samples are bit for bit the start of the
    response over n_samples, whatever n_out.  sigma_c, Omega_c and b0 are
    formed elementwise by the operations of ``ProcessParams``, and every
    tau_c and lambda_c must be a positive finite number, as there;
    otherwise ValueError.
    """
    tau_c = np.asarray(tau_c, dtype=float)
    lambda_c = np.asarray(lambda_c, dtype=float)
    for name, v in (("tau_c", tau_c), ("lambda_c", lambda_c)):
        if not np.all((0 < v) & (v < np.inf)):
            raise ValueError(f"every {name} must be a positive finite "
                             f"number")
    s, w, b0 = _rates(tau_c, lambda_c)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n_in = u.shape[-1]
    if not n_in <= n_samples:
        raise ValueError("require input length <= n_samples")
    n_out = n_samples if n_out is None else n_out
    if not 0 <= n_out <= n_samples:
        raise ValueError("require 0 <= n_out <= n_samples")
    h0, h1 = _zoh(s, w, t_s)[1]
    mu = ((s + 1j * w) * t_s)[:, None]
    beta = (b0 * (h0 - 1j * (h1 - s * h0) / w))[:, None]
    partial = beta * np.cumsum(u * np.exp(-mu * np.arange(float(n_in))),
                               axis=-1)
    # e^{mu k} for k = q m + j as the outer product of two short tables of
    # exponentials: about 2 sqrt(n) complex exponentials per row, not n.
    # Samples [0, n_out) need the first ceil(n_out / m) values of q.
    m = int(np.ceil(np.sqrt(n_samples)))
    steps = np.arange(float(m))
    rows = -(-n_out // max(m, 1))
    powers = (np.exp(mu * m * steps[:rows])[:, :, None]
              * np.exp(mu * steps)[:, None, :]).reshape(len(w), -1)
    y = powers[:, :n_out]
    y[:, :n_in] *= partial[:, :n_out]
    y[:, n_in:] *= partial[:, -1:]
    return y.real


def detect_signal_response(f_tilde: np.ndarray, t_s: float, u: np.ndarray,
                           n_samples: int) -> np.ndarray:
    """The first n_samples of the ``oscillator_response`` of the detection
    study's signals at frequencies f_tilde (cyc/smp, one per row of u):
    alpha_tau = 4 about the centre frequency SIGNAL_F_C, and lambda_c =
    T_s / f_tilde.  The response runs from PULSE_SAMPLE to the row end,
    DETECT_N - PULSE_SAMPLE samples, and n_samples at most that; any
    n_samples gives bit for bit the start of the full-row response."""
    tau, lam = _detect_times(SIGNAL_F_C, np.asarray(f_tilde, dtype=float),
                             t_s)
    return oscillator_response(np.full_like(lam, tau), lam, t_s, u,
                               DETECT_N - PULSE_SAMPLE, n_samples)


def impulse_energy_closed_form(params: ProcessParams) -> float:
    """Exact value of the impulse-response energy integral.

    For h(t) = (b0/Omega) e^{sigma t} sin(Omega t), t >= 0:
    integral h^2 dt = b0^2 / (-4 sigma (sigma^2 + Omega^2)),
    which the b0 normalization makes exactly 1.
    """
    s, w = params.sigma_c, params.omega_c
    return params.b0 ** 2 / (-4.0 * s * (s * s + w * w))


def verify_normalization(params: ProcessParams) -> float:
    """Quadrature of the impulse-response energy (truncated at 20 tau_c)."""
    dt = params.tau_c / 1e4
    t = np.arange(0.0, 20.0 * params.tau_c, dt)
    h = (params.b0 / params.omega_c) * np.exp(params.sigma_c * t) \
        * np.sin(params.omega_c * t)
    return float(np.trapezoid(h * h, dx=dt))


def generate_waveform(process: DiscreteProcess, inp: InputSpec,
                      n_samples: int,
                      rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Drive the discrete process from rest with the specified input.

    Deterministic inputs hold A_c = sqrt(P_c / T_s) over [n0, n1];
    stochastic inputs draw i.i.d. Normal(0, P_c / T_s) there from rng,
    which they require.
    """
    if not 0 <= inp.n0 <= inp.n1 < n_samples:
        raise ValueError("require 0 <= n0 <= n1 < N")
    x = np.zeros(n_samples)
    if inp.kind == "deterministic":
        x[inp.n0:inp.n1 + 1] = np.sqrt(inp.power / process.t_s)
    else:
        if rng is None:
            raise ValueError("stochastic inputs need an rng")
        x[inp.n0:inp.n1 + 1] = rng.normal(
            0.0, np.sqrt(inp.power / process.t_s), inp.n1 - inp.n0 + 1)
    b, a = process.transfer()
    return run_filter(b, a, x)


#: Centre frequencies of the signal and the interference, in cyc/smp, in
#: both studies, and every study filter's band edge and null.
SIGNAL_F_C, INTERFERENCE_F_C = 0.05, 0.07
#: The studies' sampling rates (Hz); detection's samples per instance,
#: pulse sample, search windows (inclusive) and powers; tracking's powers.
DETECT_FS, TRACK_FS = 1000.0, 10.0
DETECT_N, PULSE_SAMPLE = 1000, 400
TRUE_WINDOW, FALSE_WINDOW = (400, 500), (200, 800)
P_SIG, P_INT, P_SIG_TRACK, P_INT_TRACK = 1.0, 0.1, 1.0e4, 1.0e2


def _detect_times(f_c, f_tilde, t_s: float):
    """tau_c (alpha_tau = 4) and lambda_c of a detection-study process of
    centre frequency f_c and frequency f_tilde, both in cyc/smp;
    elementwise over an array f_tilde."""
    return 4.0 * t_s / f_c, t_s / f_tilde


def scenario_params(section: Literal["detect", "track"],
                    role: Literal["signal", "interference"],
                    gain: Literal["lo", "hi"] = "lo",
                    f_s: float = DETECT_FS) -> ProcessParams:
    """Process parameters for the detection and tracking studies.

    Detection (F_s = DETECT_FS): alpha_tau = 4; the centre frequency is
    SIGNAL_F_C (signal) or INTERFERENCE_F_C.  The study's signals have an
    unknown frequency f~ ~ Uniform(0, SIGNAL_F_C), which
    ``detector._simulate_block`` draws per trial for
    ``detect_signal_response``.  Tracking (TRACK_FS): alpha_tau = 8
    and lambda = alpha_lambda T_s / f_c with alpha_lambda = 8 (low-gain
    signal), 2 (high-gain signal), or 1 (interference).  Any other
    section, role or gain raises ValueError.
    """
    if section not in ("detect", "track"):
        raise ValueError("section must be detect or track")
    if role not in ("signal", "interference"):
        raise ValueError("role must be signal or interference")
    if gain not in ("lo", "hi"):
        raise ValueError("gain must be lo or hi")
    t_s = 1.0 / f_s
    f_c = SIGNAL_F_C if role == "signal" else INTERFERENCE_F_C
    if section == "detect":
        tau, lam = _detect_times(f_c, f_c, t_s)
        return ProcessParams(tau_c=tau, lambda_c=lam)
    tau = 8.0 * t_s / f_c
    if role == "signal":
        alpha_lambda = 8.0 if gain == "lo" else 2.0
    else:
        alpha_lambda = 1.0
    lam = alpha_lambda * t_s / f_c
    return ProcessParams(tau_c=tau, lambda_c=lam)
