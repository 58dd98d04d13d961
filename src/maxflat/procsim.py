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
from typing import Literal, Optional, Sequence

import numpy as np

from .design import NumericalError
from .realize import run_filter


@dataclass(frozen=True)
class ProcessParams:
    """Coherence duration tau_c and wave period lambda_c, both in seconds."""

    tau_c: float
    lambda_c: float

    def __post_init__(self) -> None:
        if self.tau_c <= 0:
            raise ValueError("tau_c must be positive")
        if self.lambda_c <= 0:
            raise ValueError("lambda_c must be positive")

    @property
    def sigma_c(self) -> float:
        return -1.0 / self.tau_c

    @property
    def omega_c(self) -> float:
        return 2.0 * np.pi / self.lambda_c

    @property
    def b0(self) -> float:
        s, w = self.sigma_c, self.omega_c
        return float(np.sqrt(-4.0 * s * (s * s + w * w)))


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
    s, w = params.sigma_c, params.omega_c
    if w == 0:
        raise NumericalError("degenerate oscillator: Omega_c = 0")
    g, h = _zoh(s, w, t_s)
    c = np.array([params.b0, 0.0])
    return DiscreteProcess(g=np.array(g), h=np.array(h), c=c, t_s=t_s)


def _zoh(s, w, t_s: float):
    """Entries of the exact zero-order-hold G (2 x 2) and H (2) over one
    T_s, elementwise over scalar or array sigma_c and Omega_c."""
    e = np.exp(s * t_s)
    cw, sw = np.cos(w * t_s), np.sin(w * t_s)
    r2 = s * s + w * w
    g = ((e * (cw - (s / w) * sw), (1.0 / w) * e * sw),
         (-(r2 / w) * e * sw, e * (cw + (s / w) * sw)))
    h = ((1.0 - e * (cw - (s / w) * sw)) / r2, (1.0 / w) * e * sw)
    return g, h


def oscillator_response(params: Sequence[ProcessParams], t_s: float,
                        u: np.ndarray, n_samples: int) -> np.ndarray:
    """Outputs of several discretized processes, row i driven from rest by
    the input row u[i] over samples [0, L), returned over n_samples >= L.

    Evaluated in closed form rather than by a recursion.  Over k samples
    the transition is G^k = exp(A k T_s)
    = e^{sigma k T_s} [cos(Omega k T_s) I + sin(Omega k T_s)/Omega (A - sigma I)],
    so the response to a unit input is C G^k H = b0 Re(beta e^{mu k}) with
    mu = (sigma + i Omega) T_s, beta = h_0 - i (h_1 - sigma h_0) / Omega
    and H the exact ZOH input vector of ``discretize_process``.  Summing
    over the input, y[k] = Re(e^{mu k} P_min(k, L-1)) with
    P_j = b0 beta sum_{m <= j} u[m] e^{-mu m}.  It agrees with the state
    recursion w[n] = G w[n-1] + H u[n], y[n] = C w[n] to about 1e-14 of
    each row's peak.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n_in = u.shape[-1]
    if not n_in <= n_samples:
        raise ValueError("require input length <= n_samples")
    s = np.array([p.sigma_c for p in params])
    w = np.array([p.omega_c for p in params])
    b0 = np.array([p.b0 for p in params])
    if np.any(w == 0):
        raise NumericalError("degenerate oscillator: Omega_c = 0")
    _, (h0, h1) = _zoh(s, w, t_s)
    mu = ((s + 1j * w) * t_s)[:, None]
    beta = (b0 * (h0 - 1j * (h1 - s * h0) / w))[:, None]
    partial = beta * np.cumsum(u * np.exp(-mu * np.arange(float(n_in))),
                               axis=-1)
    # e^{mu k} for k = q m + j as the outer product of two short tables of
    # exponentials: about 2 sqrt(n) complex exponentials per row, not n.
    m = int(np.ceil(np.sqrt(n_samples)))
    steps = np.arange(float(m))
    powers = (np.exp(mu * m * steps)[:, :, None]
              * np.exp(mu * steps)[:, None, :]).reshape(len(w), -1)
    k = np.arange(n_samples)
    return (powers[:, :n_samples] * partial[:, np.minimum(k, n_in - 1)]).real


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


def scenario_params(section: Literal["detect", "track"],
                    role: Literal["signal", "interference"],
                    known_freq: bool = True,
                    rng: Optional[np.random.Generator] = None,
                    gain: Literal["lo", "hi"] = "lo",
                    f_s: float = 1000.0) -> ProcessParams:
    """Process parameters for the detection and tracking studies.

    Detection (F_s = 1000 Hz): alpha_tau = 4; the signal centre frequency is
    0.05 cyc/smp (drawn Uniform(0, 0.05) when unknown), the interference
    centre frequency is 0.07 cyc/smp.  Tracking (T_s = 0.1 s): alpha_tau = 8
    and lambda = alpha_lambda T_s / f_c with alpha_lambda = 8 (low-gain
    signal), 2 (high-gain signal), or 1 (interference).
    """
    t_s = 1.0 / f_s
    if section == "detect":
        f_c = 0.05 if role == "signal" else 0.07
        tau = 4.0 * t_s / f_c
        f_tilde = f_c
        if role == "signal" and not known_freq:
            if rng is None:
                raise ValueError("unknown-frequency draws need an rng")
            f_tilde = float(rng.uniform(0.0, f_c))
        lam = t_s / f_tilde
        return ProcessParams(tau_c=tau, lambda_c=lam)
    if section == "track":
        f_c = 0.05 if role == "signal" else 0.07
        tau = 8.0 * t_s / f_c
        if role == "signal":
            alpha_lambda = 8.0 if gain == "lo" else 2.0
        else:
            alpha_lambda = 1.0
        lam = alpha_lambda * t_s / f_c
        return ProcessParams(tau_c=tau, lambda_c=lam)
    raise ValueError("section must be detect or track")
