"""Teager-Kaiser pulse detectors and the Monte-Carlo ROC study.

Five detector pipelines are provided:

- FIR_NUL_NC: the bare non-causal three-point Teager-Kaiser (TK) operator,
  no pre-filter.
- IIR_BW0: causal Butterworth reference smoother (the stable half of a
  2K = 12 zero-phase prototype, discretized by the bilinear method) followed
  by causal three-point TK.
- IIR_BW1: the one-stage smoother/differentiator filterbank (K_w_dc = 3,
  K_w_nb = 3, K = 9, optimal delay); TK energy formed directly from the
  derivative outputs.
- IIR_BW0_NC: zero-phase Butterworth (2K = 8, bilinear), realized as a
  forward pass plus a time-reversed pass of the causal half, followed by
  non-causal TK.
- IIR_BW1_NC: zero-delay two-sided filterbank smoother (K_w_dc = 4,
  K_w_nb = 2 over all 2K = 8 impulse-invariant Butterworth poles) followed
  by non-causal TK.

The Monte-Carlo study measures detectability of a damped-oscillator pulse
of unknown frequency buried in narrowband interference at 0.07 cyc/smp.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from .butter import butterworth_s_poles
from .design import DesignSpec, FilterbankDesign, design_filterbank, \
    noncausal_design
from .procsim import check_nonnegative_int, discretize_process, \
    oscillator_response, scenario_params
from .realize import run_filter, run_noncausal

#: Sampling rate of the detection study (Hz).
DETECT_FS = 1000.0
#: Samples per Monte-Carlo instance.
DETECT_N = 1000
#: Deterministic pulse arrival sample.
PULSE_SAMPLE = 400
#: True-detection search window (inclusive).
TRUE_WINDOW = (400, 500)
#: False-alarm search window (inclusive).
FALSE_WINDOW = (200, 800)
#: Pulse and interference powers.
P_SIG = 1.0
P_INT = 0.1
#: Trials that ``run_detection_mc`` filters and scores together.  A block's
#: working arrays are (2 BLOCK, DETECT_N) float64, 16 kB per trial each,
#: and a detector holds a few of them at once.  Time per trial was lowest
#: at 8-16 and grew again at 32 and 64 as the arrays outgrew the CPU
#: caches (2-core x86-64 VM); the peak resident memory of a run grows
#: with the block too, by about 1.2 MB at 16.
BLOCK = 16
#: Simulated blocks that ``block_statistics`` keeps, least recently used
#: out first.  A full block is (2 BLOCK, DETECT_N) float64, 256 kB, so the
#: memo holds at most 4.1 MB: 256 trials of one seed and signal kind.
#: Detectors compared on the same trials of up to that many, as the
#: benchmark's five detectors at 200 trials are, simulate them once.  A
#: longer run (criterion 10 and ``detect-sim`` at 2,000 trials) cycles its
#: 125 blocks through the memo and reuses none of them.
MEMO_BLOCKS = 16

DETECTOR_TAGS = ("FIR_NUL_NC", "IIR_BW0", "IIR_BW1", "IIR_BW0_NC",
                 "IIR_BW1_NC")


@dataclass(frozen=True)
class RocCurve:
    """Empirical ROC: (P_fa, P_d) pairs swept over thresholds, plus AUC."""

    p_fa: np.ndarray
    p_d: np.ndarray
    auc: float


def tk_energy_threepoint(x: np.ndarray, causal: bool, t_s: float) -> np.ndarray:
    """Three-point Teager-Kaiser energy along the last axis.

    Causal: E[n] = (x[n-1]^2 - x[n-2] x[n]) / T_s^2.
    Non-causal: E[n] = (x[n]^2 - x[n-1] x[n+1]) / T_s^2.
    Edge samples (with missing neighbours) are zero.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 3:
        raise ValueError("need at least 3 samples")
    e = np.zeros_like(x)
    energy = e[..., 2:] if causal else e[..., 1:-1]
    np.multiply(x[..., :-2], x[..., 2:], out=energy)
    np.subtract(np.square(x[..., 1:-1]), energy, out=energy)
    energy /= t_s ** 2
    return e


def tk_energy_derivatives(y0: np.ndarray, y1: np.ndarray,
                          y2: np.ndarray) -> np.ndarray:
    """TK energy from direct derivative estimates: E = y1^2 - y0 y2."""
    y0, y1, y2 = map(np.asarray, (y0, y1, y2))
    if not y0.shape == y1.shape == y2.shape:
        raise ValueError("derivative sequences must have equal lengths")
    return y1 ** 2 - y0 * y2


def _bilinear_allpole(s_poles: np.ndarray, t_s: float) -> Tuple[np.ndarray,
                                                                np.ndarray]:
    """Bilinear transform of an all-pole analog filter, dc gain forced to 1.

    Each analog pole maps to (2/T_s + s)/(2/T_s - s); each excess pole
    contributes a zero at z = -1.
    """
    fs2 = 2.0 / t_s
    zp = (fs2 + s_poles) / (fs2 - s_poles)
    zz = -np.ones(len(s_poles))
    b = np.real(np.atleast_1d(np.poly(zz)))
    a = np.real(np.atleast_1d(np.poly(zp)))
    b = b * (np.polyval(a, 1.0) / np.polyval(b, 1.0))
    return b, a


def bw0_reference(causal: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Butterworth reference smoother coefficients (bilinear method), with
    the cutoff at 0.05 cyc/smp of DETECT_FS.

    The causal reference is the stable half of a 2K = 12 zero-phase
    prototype (a 6th-order lowpass); the non-causal reference is the causal
    half of a 2K = 8 prototype (4th order), intended to be applied forward
    and backward so the net response is its squared magnitude.
    """
    t_s = 1.0 / DETECT_FS
    w_c = 2.0 * np.pi * 0.05 * DETECT_FS
    order = 6 if causal else 4
    s_poles = butterworth_s_poles(order, w_c)
    lhp = s_poles[s_poles.real < 0]
    return _bilinear_allpole(lhp, t_s)


def bw1_filterbank() -> FilterbankDesign:
    """The K = 9 causal filterbank of the detection study."""
    return design_filterbank(DesignSpec(
        f_s=DETECT_FS, f_wb=0.05, f_nb=0.07, k_w_dc=3, k_w_nb=3, k_w_pi=0,
        k_t=3, group_delay="optimal"))


def bw1_nc_smoother() -> Tuple[FilterbankDesign, FilterbankDesign]:
    """Zero-delay two-sided smoother: K_w_dc = 4, K_w_nb = 2, 2K = 8 poles."""
    return noncausal_design(DesignSpec(
        f_s=DETECT_FS, f_wb=0.05, f_nb=0.07, k_w_dc=4, k_w_nb=2, k_w_pi=0,
        k_t=1, group_delay=0.0, causal=False))


def build_detector(tag: str) -> Callable[[np.ndarray], np.ndarray]:
    """Map a detector tag to a callable x -> TK energy sequence.

    The callable works along the last axis, so a (rows, N) array gives
    the TK energy of each row, equal to one call per row.  Every pipeline
    is built at DETECT_FS, the rate of the scenario that
    ``block_statistics`` simulates."""
    t_s = 1.0 / DETECT_FS
    if tag == "FIR_NUL_NC":
        return lambda x: tk_energy_threepoint(x, causal=False, t_s=t_s)
    if tag == "IIR_BW0":
        b, a = bw0_reference(causal=True)
        return lambda x: tk_energy_threepoint(run_filter(b, a, x),
                                              causal=True, t_s=t_s)
    if tag == "IIR_BW1":
        d = bw1_filterbank()

        def detect(x: np.ndarray) -> np.ndarray:
            y = [run_filter(d.b[kt], d.a, x) for kt in range(3)]
            return tk_energy_derivatives(*y)
        return detect
    if tag == "IIR_BW0_NC":
        b, a = bw0_reference(causal=False)

        def detect(x: np.ndarray) -> np.ndarray:
            y = run_filter(b, a, x)
            y = run_filter(b, a, y[..., ::-1])[..., ::-1]
            return tk_energy_threepoint(y, causal=False, t_s=t_s)
        return detect
    if tag == "IIR_BW1_NC":
        fwd, bwd = bw1_nc_smoother()

        def detect(x: np.ndarray) -> np.ndarray:
            y = run_noncausal(fwd, bwd, x, k_t=0)
            return tk_energy_threepoint(y, causal=False, t_s=t_s)
        return detect
    raise ValueError(f"unknown detector tag {tag!r}; supported tags: "
                     + ", ".join(DETECTOR_TAGS))


@functools.lru_cache(maxsize=MEMO_BLOCKS, typed=True)
def _simulate_block(seed: int, first: int, count: int,
                    deterministic_signal: bool) -> np.ndarray:
    """The detector inputs of trials first, ..., first + count - 1: rows
    0 .. count - 1 are signal + interference, rows count .. 2 count - 1
    interference only.  The array is read-only, because the memo hands
    the same one to every detector."""
    t_s = 1.0 / DETECT_FS
    n_pulse = 1 if deterministic_signal else 51
    pulse_scale = np.sqrt(P_SIG / t_s)
    int_scale = np.sqrt((P_INT if deterministic_signal else 1.0) / t_s)
    pulse = np.full((count, n_pulse), pulse_scale)
    x = np.empty((2 * count, DETECT_N))
    sig_params = []
    for i in range(count):
        rng_sig, rng_int1, rng_int2 = (
            np.random.default_rng(np.random.SeedSequence(
                seed, spawn_key=(first + i, j))) for j in range(3))
        sig_params.append(scenario_params("detect", "signal",
                                          known_freq=False, rng=rng_sig,
                                          f_s=DETECT_FS))
        if not deterministic_signal:
            pulse[i] = rng_sig.normal(0.0, pulse_scale, n_pulse)
        x[i] = rng_int1.normal(0.0, int_scale, DETECT_N)
        x[count + i] = rng_int2.normal(0.0, int_scale, DETECT_N)

    b, a = discretize_process(
        scenario_params("detect", "interference", f_s=DETECT_FS),
        t_s).transfer()
    x = run_filter(b, a, x)
    x[:count, PULSE_SAMPLE:] += oscillator_response(
        sig_params, t_s, pulse, DETECT_N - PULSE_SAMPLE)
    x.flags.writeable = False
    return x


def block_statistics(detector: Callable[[np.ndarray], np.ndarray],
                     seed: int, first: int, count: int,
                     deterministic_signal: bool = True
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """True and false statistics of trials first, ..., first + count - 1.

    Trial t draws from its own three streams,
    ``SeedSequence(seed, spawn_key=(t, j))`` for j = 0 (signal frequency,
    then the stochastic pulse), 1 (interference of the signal instance)
    and 2 (interference-only instance), which are the three children of
    ``SeedSequence(seed, spawn_key=(t,))``; so a trial's draws do not
    depend on the block it runs in.  The rest is done once per block:
    the interference process is filtered over all 2 * count rows in one
    call, each signal is the closed-form response of its trial's
    oscillator (``procsim.oscillator_response``), and the detector runs
    once on the stacked (signal + interference; interference-only) rows.
    The inputs follow ``procsim.generate_waveform``: a pulse of height
    sqrt(P_SIG / T_s) at PULSE_SAMPLE, or Normal(0, P_SIG / T_s) over
    [PULSE_SAMPLE, PULSE_SAMPLE + 50] for the stochastic signal, under
    white Normal(0, P / T_s) interference drive with P = P_INT (or 1).

    The stacked rows come from a memo of MEMO_BLOCKS blocks keyed by
    (seed, first, count, signal kind), so detectors scored on the same
    trials share one simulation.  seed, first and count must be
    non-negative integers: None, a bool, a float or a negative number
    raises ValueError.  The rows are read-only, and a detector that writes
    into its input raises ValueError.
    """
    seed = check_nonnegative_int(seed, "seed")
    first = check_nonnegative_int(first, "first")
    count = check_nonnegative_int(count, "count")
    if count < 1:
        raise ValueError("count must be >= 1")
    x = _simulate_block(seed, first, count, bool(deterministic_signal))
    e = detector(x)
    stat_true = e[:count, TRUE_WINDOW[0]:TRUE_WINDOW[1] + 1].max(axis=-1)
    stat_false = e[count:, FALSE_WINDOW[0]:FALSE_WINDOW[1] + 1].max(axis=-1)
    return stat_true, stat_false


def roc_from_statistics(stat_true: np.ndarray,
                        stat_false: np.ndarray) -> RocCurve:
    """Empirical ROC over the pooled sorted statistics; AUC by trapezoid."""
    thresholds = np.concatenate([[-np.inf],
                                 np.unique(np.concatenate([stat_true,
                                                           stat_false]))])
    st = np.sort(stat_true)
    sf = np.sort(stat_false)
    # P(statistic > threshold) via binary search on the sorted samples.
    p_d = 1.0 - np.searchsorted(st, thresholds, side="right") / len(st)
    p_fa = 1.0 - np.searchsorted(sf, thresholds, side="right") / len(sf)
    # Sort by (P_fa, P_d) so ties in P_fa are traversed in ascending P_d;
    # the trapezoid then integrates the upper staircase of the curve.
    order = np.lexsort((p_d, p_fa))
    p_fa, p_d = p_fa[order], p_d[order]
    auc = float(np.trapezoid(p_d, p_fa))
    return RocCurve(p_fa=p_fa, p_d=p_d, auc=auc)


def run_detection_mc(detector: Callable[[np.ndarray], np.ndarray],
                     trials: int, seed: int,
                     deterministic_signal: bool = True) -> RocCurve:
    """Monte-Carlo ROC of a detector over paired instances.

    Per trial, the true statistic is the max TK energy over samples
    [400, 500] of a signal+interference instance; the false statistic is
    the max over [200, 800] of an independent interference-only instance.

    The false-alarm window (601 samples) is six times the detection window
    (101 samples), so the false statistic is a maximum over six times as
    many samples. A detector that cannot see the pulse therefore scores
    an AUC below 0.5, not at chance: FIR_NUL_NC measures 0.188 (seed 0,
    2000 trials).

    Trials run in blocks of BLOCK through ``block_statistics``: each trial
    keeps its own random streams, so the statistics do not depend on the
    block size, while filtering and scoring are done on (rows, N) arrays
    once per block instead of once per instance.  The block stays small
    because its arrays are what a run holds in memory beyond the
    detector.  The simulated blocks are memoized (see MEMO_BLOCKS), so a
    second detector run on the same seed, signal kind and at most
    MEMO_BLOCKS * BLOCK trials pays only for its own filtering and
    scoring; a first or longer run still builds three generators per
    trial and draws from them.  seed and trials must be integers, trials
    at least 1.
    """
    trials = check_nonnegative_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    blocks = [block_statistics(detector, seed, first,
                               min(BLOCK, trials - first),
                               deterministic_signal)
              for first in range(0, trials, BLOCK)]
    stat_true, stat_false = (np.concatenate(s) for s in zip(*blocks))
    return roc_from_statistics(stat_true, stat_false)


def detector_metrics(tag: str) -> Dict[str, float]:
    """Static summary metrics for one detector's smoothing stage:
    group delay, white-noise gain, and response levels at the passband
    edge and the interference frequency."""
    from .analyze import frequency_response, measured_group_delay, \
        noncausal_response

    w_wb, w_nb = 2 * np.pi * 0.05, 2 * np.pi * 0.07
    if tag == "IIR_BW1":
        d = bw1_filterbank()
        q = d.q
        sigma0 = float(d.sigma[0, 0])
        h_wb = frequency_response(d.b[0], d.a, np.array([w_wb]))[0]
        h_nb = frequency_response(d.b[0], d.a, np.array([w_nb]))[0]
    elif tag == "IIR_BW1_NC":
        fwd, bwd = bw1_nc_smoother()
        q = 0.0
        sigma0 = float(fwd.sigma[0, 0])
        h_wb = noncausal_response(fwd, bwd, np.array([w_wb]))[0]
        h_nb = noncausal_response(fwd, bwd, np.array([w_nb]))[0]
    elif tag in ("IIR_BW0", "IIR_BW0_NC"):
        b, a = bw0_reference(causal=(tag == "IIR_BW0"))
        h = lambda w: frequency_response(b, a, np.array([w]))[0]
        if tag == "IIR_BW0":
            grid = np.linspace(1e-4, w_wb / 2, 64)
            q = float(np.mean(measured_group_delay(b, a, grid)))
            h_wb, h_nb = h(w_wb), h(w_nb)
            imp = run_filter(b, a, np.r_[1.0, np.zeros(9999)])
            sigma0 = float(np.sum(imp ** 2))
        else:
            q = 0.0
            h_wb, h_nb = h(w_wb) * h(-w_wb), h(w_nb) * h(-w_nb)
            imp = run_filter(b, a, np.r_[np.zeros(5000), 1.0,
                                         np.zeros(4999)])
            imp = run_filter(b, a, imp[::-1])[::-1]
            sigma0 = float(np.sum(imp ** 2))
    elif tag == "FIR_NUL_NC":
        q = 0.0
        sigma0 = 1.0   # no pre-filter: the smoothing path is the identity
        h_wb, h_nb = 1.0 + 0.0j, 1.0 + 0.0j
    else:
        raise ValueError(f"unknown detector tag {tag!r}; supported tags: "
                         + ", ".join(DETECTOR_TAGS))
    return {"tag": tag, "q": float(q), "sigma0": sigma0,
            "h_wb": float(abs(h_wb)), "h_nb": float(abs(h_nb))}
