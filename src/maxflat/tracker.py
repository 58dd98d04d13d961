"""Two-dimensional target tracking with per-axis filterbanks.

Each Cartesian axis is filtered independently by an identical causal
smoother/differentiator bank running at T_s = 0.1 s; the smoother output is
the lag-q position estimate.  Steady-state accuracy on a constant-rate
circular orbit follows directly from the frequency response at the turn
rate and is verified here by simulation.  The Monte-Carlo scenarios
measure tracking error for a coloured-noise target trajectory corrupted by
narrowband interference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .analyze import NULL_RADIUS_TOL, OrbitError, check_orbit_radius, \
    check_orbit_rate, frequency_response, response_orbit_error
from .design import TRACKER_CONFIGS, DesignSpec, FilterbankDesign, \
    design_filterbank
from .procsim import INTERFERENCE_F_C, P_INT_TRACK, P_SIG_TRACK, \
    SIGNAL_F_C, TRACK_FS, check_nonnegative_int, discretize_process, \
    scenario_params
from .realize import run_filter

#: Default orbit turn-rate grid (cycles/sample): passband, band edge, null.
DEFAULT_ORBIT_RATES = (0.001, 0.005, 0.01, 0.025, SIGNAL_F_C,
                       INTERFERENCE_F_C)
#: Simulated scenarios that ``run_tracking_mc`` keeps, least recently used
#: out first.  An entry is the truth and the measurement, two (2, N) float64
#: arrays: 3.2 MB at 1e5 samples (tracemalloc).  Trackers compared on the
#: same draws, as the benchmark's four are on one LoG and one HiG instance
#: per round, simulate each instance once; a loop that cycles through more
#: than two (scenario, seed, n_samples) keys reuses none of them.
MEMO_SCENARIOS = 2
#: The scenario-independent draws (``_draw_noise``) of the last
#: (seed, n_samples) simulated, 32 B per sample, 3.2 MB at 1e5 samples
#: (tracemalloc), so LoG and HiG of one seed draw once.  It is emptied
#: before another (seed, n_samples) is drawn, so that the new draws can
#: reuse the old ones' memory.
_last_draws: Dict[Tuple[int, int], tuple] = {}


def tracker_spec(tag: str) -> DesignSpec:
    if tag not in TRACKER_CONFIGS:
        raise ValueError(f"unknown tracker tag {tag!r}; supported tags: "
                         + ", ".join(TRACKER_CONFIGS))
    k_w_dc, k_w_nb = TRACKER_CONFIGS[tag]
    return DesignSpec(f_s=TRACK_FS, f_wb=SIGNAL_F_C,
                      f_nb=INTERFERENCE_F_C if k_w_nb else None,
                      k_w_dc=k_w_dc, k_w_nb=k_w_nb, k_w_pi=0, k_t=3,
                      group_delay="optimal")


def tracker_design(tag: str) -> FilterbankDesign:
    return design_filterbank(tracker_spec(tag))


def orbit_simulation(design: FilterbankDesign, f_orb: float,
                     r_orb: float) -> OrbitError:
    """Measured steady-state orbit error after 10 revolutions.

    The target moves on x = r cos(2 pi f_orb n), y = r sin(...); the
    smoother passes a constant centre unchanged, so the errors do not
    depend on it.  The error is read from the final sample against the
    lag-adjusted truth at n - q, expressed as a radial offset and an
    angular offset.  Only the smoother output is filtered, over both axes
    at once.  f_orb must lie in [0, 0.5) cycles/sample and r_orb must be
    positive and finite, as for ``orbit_steady_state``; otherwise
    ValueError.
    """
    check_orbit_rate(f_orb)
    check_orbit_radius(r_orb)
    if f_orb == 0.0:
        return OrbitError(eps_r=0.0, eps_theta=0.0)
    # Revolutions alone can be too short in samples at high turn rates;
    # add an explicit allowance for the slowest pole transient to decay so
    # the final sample is genuinely in steady state.
    decay = np.log(1e-14) / np.log(np.max(np.abs(design.poles)))
    n_samples = int(np.ceil(10 / f_orb)) + int(np.ceil(decay))
    phase = 2.0 * np.pi * f_orb * np.arange(n_samples)
    orbit = np.empty((2, n_samples))
    np.cos(phase, out=orbit[0])
    np.sin(phase, out=orbit[1])
    orbit *= r_orb
    est = run_filter(design.b[0], design.a, orbit)
    ex, ey = est[:, -1]
    r_est = float(np.hypot(ex, ey))
    eps_r = r_est - r_orb
    if r_est < NULL_RADIUS_TOL * r_orb:
        # Track collapsed to the centre: angular error is undefined
        # (matching the prediction-side convention).
        eps_theta = 0.0
    else:
        theta_est = float(np.arctan2(ey, ex))
        theta_true = 2.0 * np.pi * f_orb * (n_samples - 1 - design.q)
        eps_theta = theta_est - theta_true
        eps_theta = float((eps_theta + np.pi) % (2.0 * np.pi) - np.pi)
    return OrbitError(eps_r=eps_r, eps_theta=eps_theta)


def orbit_check(design: FilterbankDesign,
                rates: Tuple[float, ...] = DEFAULT_ORBIT_RATES):
    """Measured vs predicted errors of a unit-radius orbit at each rate:
    ``orbit_simulation`` and, from the smoother's response at every rate
    in one call, ``orbit_steady_state``'s ``response_orbit_error``."""
    for f_orb in rates:
        check_orbit_rate(f_orb)
    w = 2.0 * np.pi * np.array(rates, dtype=float)
    h = frequency_response(design.b[0], design.a, w)
    rows = []
    for f_orb, w_i, h_i in zip(rates, w.tolist(), h.tolist()):
        measured = orbit_simulation(design, f_orb, 1.0)
        predicted = response_orbit_error(h_i, w_i, design.q, 1.0)
        rows.append({"f_orb": f_orb,
                     "eps_r_predicted": predicted.eps_r,
                     "eps_r_measured": measured.eps_r,
                     "eps_theta_predicted": predicted.eps_theta,
                     "eps_theta_measured": measured.eps_theta})
    return rows


@dataclass(frozen=True)
class TrackingRun:
    """One Monte-Carlo tracking instance: truth, measurement and smoother
    position estimate of each axis, rows of (2, N) arrays, and the RMS
    error against the truth delayed by round(q) samples.  The truth and
    measurement rows are read-only views of the scenario memo's arrays,
    which every tracker run on the same (scenario, seed, n_samples)
    shares.  The derivative tracks are not computed: output k of the bank
    is ``run_filter(design.b[k], design.a, meas)`` of the same
    measurement."""

    truth_x: np.ndarray
    truth_y: np.ndarray
    meas_x: np.ndarray
    meas_y: np.ndarray
    est_x: np.ndarray
    est_y: np.ndarray
    rms_error: float


def _draw_noise(seed: int, n_samples: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Origin (2,), white signal drives (2, N) of power P_SIG_TRACK and
    interference (2, N), rows x then y, from the five children of
    ``SeedSequence(seed)``: signal x, signal y, interference x,
    interference y and the origin.  LoG and HiG share them.

    Each row is drawn in place with ``standard_normal`` and each array
    scaled once, the numbers ``normal(0, s)`` draws (it forms
    0 + s z).  Both interference rows are filtered in one call, each
    row exactly as ``generate_waveform`` filters it."""
    t_s = 1.0 / TRACK_FS
    int_proc = discretize_process(
        scenario_params("track", "interference", f_s=TRACK_FS), t_s)
    rng_sx, rng_sy, rng_ix, rng_iy, rng_origin = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence(entropy=seed).spawn(5))
    origin = rng_origin.uniform(-1000.0, 1000.0, size=2)
    drives = np.empty((2, n_samples))
    white = np.empty((2, n_samples))
    for rng, row in ((rng_sx, drives[0]), (rng_sy, drives[1]),
                     (rng_ix, white[0]), (rng_iy, white[1])):
        rng.standard_normal(out=row)
    drives *= np.sqrt(P_SIG_TRACK / t_s)
    white *= np.sqrt(P_INT_TRACK / t_s)
    return origin, drives, run_filter(*int_proc.transfer(), white)


@functools.lru_cache(maxsize=MEMO_SCENARIOS)
def _simulate_scenario(scenario: str, seed: int, n_samples: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Truth and measurement of one scenario instance, (2, N) arrays with
    rows x then y: the seed's drives filtered through the scenario's
    signal process, plus the origin, and that truth plus the interference
    (``_draw_noise``, kept in ``_last_draws``).  The draws and the
    instance stay writeable, so the filter kernel, which copies a
    read-only input, reads them in place; they are private to this
    module, and ``run_tracking_mc`` hands out read-only views."""
    gain = "lo" if scenario == "LoG" else "hi"
    sig_proc = discretize_process(
        scenario_params("track", "signal", gain=gain, f_s=TRACK_FS),
        1.0 / TRACK_FS)
    key = (seed, n_samples)
    if key not in _last_draws:
        _last_draws.clear()
        _last_draws[key] = _draw_noise(seed, n_samples)
    origin, drives, interference = _last_draws[key]
    truth = run_filter(*sig_proc.transfer(), drives)
    truth += origin[:, None]
    return truth, truth + interference


def run_tracking_mc(scenario: str, design: FilterbankDesign, seed: int,
                    n_samples: int = 10000) -> TrackingRun:
    """One tracking scenario instance (scenario "LoG" or "HiG").

    Truth per axis is a coloured-noise waveform of power P_sig = 1e4
    (alpha_tau = 8, alpha_lambda = 8 for Lo-G or 2 for Hi-G) started from a
    random origin in [-1000, 1000]^2; the measurement adds an independent
    interference waveform of power P_int = 1e2 (alpha_lambda = 1).  The
    reported RMS position error compares the estimates against the truth
    delayed by round(q) samples, not the lag-q truth (ROADMAP item 4),
    after a settling window of 10 q samples.  So the design's delay q must
    be non-negative, and n_samples must exceed that window; otherwise
    ValueError.

    The simulated truth and measurement do not depend on the tracker.  They
    come from a memo of MEMO_SCENARIOS instances keyed by (scenario, seed,
    n_samples), so trackers run on the same draws simulate them once and
    each pays only for its own filtering and scoring.  The two scenarios
    of one (seed, n_samples) draw their noise once: the draws of the last
    (seed, n_samples) are kept until another is drawn.  The memos keep
    their arrays writeable, so the filter reads the measurement in place,
    and the returned truth and measurement are read-only views.
    Only the smoother output is filtered, over both axes in one call, so
    a run returns the position estimates and not the derivative tracks.
    seed and n_samples must be non-negative integers: None, a bool, a
    float, a string or a negative number raises ValueError.
    """
    if scenario not in ("LoG", "HiG"):
        raise ValueError('scenario must be "LoG" or "HiG"')
    seed = check_nonnegative_int(seed, "seed")
    n_samples = check_nonnegative_int(n_samples, "n_samples")
    if design.q < 0:
        raise ValueError(f"the tracker's delay must be q >= 0, not "
                         f"q = {design.q:.4g}: the RMS error is taken "
                         f"against the truth delayed by round(q) samples, "
                         f"after a settling window of 10 q samples")
    settle = int(np.ceil(10.0 * design.q))
    if n_samples <= settle:
        raise ValueError(f"need at least {settle + 1} samples for this "
                         f"tracker: the RMS error is taken after its "
                         f"settling window of {settle} samples (10 q, "
                         f"q = {design.q:.4g})")
    truth, meas = _simulate_scenario(scenario, seed, n_samples)
    est = run_filter(design.b[0], design.a, meas)
    truth, meas = truth.view(), meas.view()
    truth.flags.writeable = meas.flags.writeable = False
    q_int = int(round(design.q))
    err = est[:, settle:] - truth[:, settle - q_int:n_samples - q_int]
    np.square(err, out=err)
    err2 = np.add(err[0], err[1], out=err[0])
    return TrackingRun(truth_x=truth[0], truth_y=truth[1], meas_x=meas[0],
                       meas_y=meas[1], est_x=est[0], est_y=est[1],
                       rms_error=float(np.sqrt(np.mean(err2))))
