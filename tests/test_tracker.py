"""2-D target tracking: axis handling, orbit errors, Monte-Carlo scenarios."""

from dataclasses import replace

import numpy as np
import pytest

from maxflat import tracker
from maxflat.analyze import NULL_RADIUS_TOL, OrbitError, orbit_steady_state
from maxflat.design import design_filterbank
from maxflat.procsim import (InputSpec, discretize_process,
                             generate_waveform, scenario_params)
from maxflat.realize import run_filter
from maxflat.tracker import (DEFAULT_ORBIT_RATES, MEMO_SCENARIOS,
                             TRACKER_CONFIGS, orbit_check, orbit_simulation,
                             run_tracking_mc, tracker_spec)


def test_tracker_configs():
    assert TRACKER_CONFIGS == {"A": (3, 0), "B": (3, 1), "C": (3, 3),
                               "D": (6, 1)}
    spec = tracker_spec("D")
    assert spec.k_w_dc == 6 and spec.k_w_nb == 1 and spec.k_t == 3
    assert spec.f_s == pytest.approx(10.0)
    with pytest.raises(ValueError, match="unknown tracker tag"):
        tracker_spec("E")


def test_tracker_orders(tracker_designs):
    for tag, (kdc, knb) in TRACKER_CONFIGS.items():
        d = tracker_designs[tag]
        assert d.order == kdc + 2 * knb
        assert d.n_outputs == 3


def _per_axis_track(design, meas_x, meas_y):
    """Oracle: one run_filter call per axis and output, stacked into
    (N, K_t) columns."""
    out_x = np.stack([run_filter(b, design.a, meas_x) for b in design.b],
                     axis=1)
    out_y = np.stack([run_filter(b, design.a, meas_y) for b in design.b],
                     axis=1)
    return out_x[:, 0], out_y[:, 0], out_x[:, 1:], out_y[:, 1:]


def test_constant_position_tracked_exactly(tracker_designs):
    d = tracker_designs["A"]
    n = 400
    est_x, est_y, deriv_x, _ = _per_axis_track(d, np.full(n, 7.0),
                                               np.full(n, -2.0))
    assert est_x[-1] == pytest.approx(7.0, abs=1e-6)
    assert est_y[-1] == pytest.approx(-2.0, abs=1e-6)
    assert np.max(np.abs(deriv_x[-1])) < 1e-5


def test_constant_velocity_tracked_with_lag(tracker_designs):
    """A straight-line track is followed exactly at lag q, and the
    velocity output converges to the true rate (in 1/s units)."""
    for tag in ("A", "D"):
        d = tracker_designs[tag]
        n = np.arange(2000, dtype=float)
        vx, vy = 1.5, -0.25
        est_x, est_y, deriv_x, deriv_y = _per_axis_track(d, vx * n, vy * n)
        assert est_x[-1] == pytest.approx(vx * (1999 - d.q), abs=1e-5)
        assert est_y[-1] == pytest.approx(vy * (1999 - d.q), abs=1e-5)
        # First-derivative output is per second: slope / T_s.
        assert deriv_x[-1, 0] == pytest.approx(vx / d.t_s, rel=1e-6)
        assert deriv_y[-1, 0] == pytest.approx(vy / d.t_s, rel=1e-6)


def test_orbit_zero_rate_is_exact(tracker_designs):
    err = orbit_simulation(tracker_designs["B"], 0.0, 3.0)
    assert err.eps_r == 0.0 and err.eps_theta == 0.0


def test_orbit_error_linear_in_radius(tracker_designs):
    d = tracker_designs["B"]
    e1 = orbit_simulation(d, 0.01, 1.0)
    e7 = orbit_simulation(d, 0.01, 7.0)
    assert e7.eps_r == pytest.approx(7.0 * e1.eps_r, rel=1e-9)
    assert e7.eps_theta == pytest.approx(e1.eps_theta, rel=1e-9)


def test_orbit_measurement_matches_prediction(tracker_designs):
    for tag, d in tracker_designs.items():
        for row in orbit_check(d):
            assert row["eps_r_measured"] == pytest.approx(
                row["eps_r_predicted"], abs=1e-6), (tag, row)
            assert row["eps_theta_measured"] == pytest.approx(
                row["eps_theta_predicted"], abs=1e-6), (tag, row)


def test_null_collapses_orbit_at_notch(tracker_designs):
    """At the notch frequency the track collapses to the centre; at the
    passband edge it is strongly attenuated but not nulled."""
    d = tracker_designs["C"]
    err = orbit_simulation(d, 0.07, 1.0)
    assert err.eps_r == pytest.approx(-1.0, abs=1e-9)
    assert err.eps_theta == 0.0
    err = orbit_simulation(d, 0.05, 1.0)
    assert -1.0 < err.eps_r < -0.8


def test_tracking_mc_deterministic_and_sane(tracker_designs):
    run1 = run_tracking_mc("LoG", tracker_designs["B"], seed=1,
                           n_samples=3000)
    run2 = run_tracking_mc("LoG", tracker_designs["B"], seed=1,
                           n_samples=3000)
    assert run1.rms_error == run2.rms_error
    assert run1.rms_error > 0.0
    assert len(run1.truth_x) == 3000
    with pytest.raises(ValueError, match="scenario"):
        run_tracking_mc("MidG", tracker_designs["B"], seed=1)


@pytest.mark.parametrize("tag", ["A", "D"])
def test_tracking_mc_rejects_runs_inside_the_settling_window(
        tracker_designs, tag):
    """A run no longer than the settling window of ceil(10 q) samples left
    nothing to score and reported an RMS error of NaN."""
    design = tracker_designs[tag]
    settle = int(np.ceil(10.0 * design.q))
    for n_samples in (0, 1, settle):
        with pytest.raises(ValueError,
                           match=f"need at least {settle + 1} samples"):
            run_tracking_mc("LoG", design, seed=1, n_samples=n_samples)
    run = run_tracking_mc("LoG", design, seed=1, n_samples=settle + 1)
    assert np.isfinite(run.rms_error)


@pytest.mark.parametrize("q", [-0.3, -2.0])
def test_tracking_mc_rejects_a_negative_delay(q):
    """q = -0.3 took the RMS error over the last 3 samples only (a
    settling window of ceil(10 q) = -3 samples), and q = -2 failed to
    broadcast the estimate against the truth."""
    design = design_filterbank(replace(tracker_spec("A"), group_delay=q))
    assert design.q == q
    with pytest.raises(ValueError, match="q >= 0"):
        run_tracking_mc("LoG", design, seed=1, n_samples=1000)


@pytest.mark.parametrize("tag", sorted(TRACKER_CONFIGS))
def test_track_and_rms_error_equal_per_axis_formulation(tracker_designs,
                                                        tag):
    """Filtering the stacked axes, and the sliced error, change no bit of
    the track or of the RMS error."""
    d = tracker_designs[tag]
    run = run_tracking_mc("HiG", d, seed=5, n_samples=3000)
    est_x, est_y, _, _ = _per_axis_track(d, run.meas_x, run.meas_y)
    assert np.array_equal(run.est_x, est_x)
    assert np.array_equal(run.est_y, est_y)
    q_int = int(round(d.q))
    n = np.arange(int(np.ceil(10.0 * d.q)), 3000)
    err2 = (est_x[n] - run.truth_x[n - q_int]) ** 2 \
        + (est_y[n] - run.truth_y[n - q_int]) ** 2
    assert run.rms_error == float(np.sqrt(np.mean(err2)))


@pytest.mark.parametrize("scenario", ["LoG", "HiG"])
@pytest.mark.parametrize("tag", sorted(TRACKER_CONFIGS))
def test_run_estimates_equal_run_track(tracker_designs, tag, scenario):
    """A run filters only the smoother output, and its estimates are
    output 0 of the bank filtered one axis at a time, bit for bit."""
    d = tracker_designs[tag]
    run = run_tracking_mc(scenario, d, seed=3, n_samples=3000)
    est_x, est_y, _, _ = _per_axis_track(d, run.meas_x, run.meas_y)
    assert np.array_equal(run.est_x, est_x)
    assert np.array_equal(run.est_y, est_y)


def test_tracking_run_filters_once_with_a_warm_memo(tracker_designs,
                                                    monkeypatch):
    """With the scenario in the memo, a run makes one run_filter call:
    the smoother over both axes.  Filtering every output made K_t calls."""
    d = tracker_designs["B"]
    run_tracking_mc("LoG", d, seed=2, n_samples=2000)
    calls = []

    def spy(b, a, x):
        calls.append(np.shape(x))
        return run_filter(b, a, x)

    monkeypatch.setattr(tracker, "run_filter", spy)
    run_tracking_mc("LoG", d, seed=2, n_samples=2000)
    assert calls == [(2, 2000)]


def test_memo_hit_run_filters_writeable_arrays(tracker_designs,
                                               monkeypatch):
    """The filter kernel copies a read-only input, so a run filters the
    memo's private writeable measurement and hands out read-only views:
    writing to a run's truth or measurement raises."""
    d = tracker_designs["D"]
    run_tracking_mc("HiG", d, seed=4, n_samples=2000)
    writeable = []

    def spy(b, a, x):
        writeable.append(x.flags.writeable)
        return run_filter(b, a, x)

    monkeypatch.setattr(tracker, "run_filter", spy)
    run = run_tracking_mc("HiG", d, seed=4, n_samples=2000)
    assert writeable == [True]
    for name in ("truth_x", "truth_y", "meas_x", "meas_y"):
        a = getattr(run, name)
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_memo_miss_run_filters_writeable_arrays(tracker_designs,
                                                monkeypatch):
    """On a miss of both memos every filter call, the interference, the
    signal and the tracker, reads a writeable array, so the kernel copies
    none: the draw memo keeps the drives private and writeable."""
    _clear_memos()
    writeable = []

    def spy(b, a, x):
        writeable.append(x.flags.writeable)
        return run_filter(b, a, x)

    monkeypatch.setattr(tracker, "run_filter", spy)
    run_tracking_mc("LoG", tracker_designs["B"], seed=6, n_samples=2000)
    assert writeable == [True, True, True]
    assert all(a.flags.writeable for a in tracker._last_draws[(6, 2000)])


def test_interference_null_improves_low_gain_tracking(tracker_designs):
    """With the interference centred at 0.07 cycles/sample, the tracker
    with a null there (B) beats the plain one (A) on the same data."""
    rms = {tag: np.mean([run_tracking_mc("LoG", tracker_designs[tag],
                                         seed=s, n_samples=3000).rms_error
                         for s in range(4)])
           for tag in ("A", "B")}
    assert rms["B"] < rms["A"]


def _scenario_oracle(scenario, seed, n_samples):
    """Oracle: the scenario drawn with four explicit generate_waveform
    calls on the five spawned streams, as run_tracking_mc drew it before
    the memo."""
    t_s = 1.0 / tracker.TRACK_FS
    gain = "lo" if scenario == "LoG" else "hi"
    sig = discretize_process(scenario_params("track", "signal", gain=gain,
                                             f_s=tracker.TRACK_FS), t_s)
    itf = discretize_process(scenario_params("track", "interference",
                                             f_s=tracker.TRACK_FS), t_s)
    rng_sx, rng_sy, rng_ix, rng_iy, rng_origin = (
        np.random.default_rng(s)
        for s in np.random.SeedSequence(entropy=seed).spawn(5))
    x0, y0 = rng_origin.uniform(-1000.0, 1000.0, size=2)
    drive = InputSpec("stochastic", 0, n_samples - 1, tracker.P_SIG_TRACK)
    noise = InputSpec("stochastic", 0, n_samples - 1, tracker.P_INT_TRACK)
    truth_x = x0 + generate_waveform(sig, drive, n_samples, rng=rng_sx)
    truth_y = y0 + generate_waveform(sig, drive, n_samples, rng=rng_sy)
    meas_x = truth_x + generate_waveform(itf, noise, n_samples, rng=rng_ix)
    meas_y = truth_y + generate_waveform(itf, noise, n_samples, rng=rng_iy)
    return truth_x, truth_y, meas_x, meas_y


def _assert_runs_equal(run, ref):
    assert run.rms_error == ref.rms_error
    for name in ("truth_x", "truth_y", "meas_x", "meas_y", "est_x",
                 "est_y"):
        assert np.array_equal(getattr(run, name), getattr(ref, name)), name


@pytest.mark.parametrize("scenario", ["LoG", "HiG"])
def test_memoized_scenario_equals_explicit_draws(tracker_designs, scenario):
    """The memo's simulation is the one drawn by four explicit
    generate_waveform calls on the same streams, bit for bit."""
    tracker._simulate_scenario.cache_clear()
    d = tracker_designs["B"]
    run = run_tracking_mc(scenario, d, seed=7, n_samples=3000)
    truth_x, truth_y, meas_x, meas_y = _scenario_oracle(scenario, 7, 3000)
    assert np.array_equal(run.truth_x, truth_x)
    assert np.array_equal(run.truth_y, truth_y)
    assert np.array_equal(run.meas_x, meas_x)
    assert np.array_equal(run.meas_y, meas_y)
    est_x, est_y, _, _ = _per_axis_track(d, meas_x, meas_y)
    assert np.array_equal(run.est_x, est_x)
    assert np.array_equal(run.est_y, est_y)


def _clear_memos():
    tracker._last_draws.clear()
    tracker._simulate_scenario.cache_clear()


def _count_draws(monkeypatch):
    """The (seed, n_samples) of every noise draw from now on.  Each draw
    must find the draw memo empty, so that the old draws' memory is free
    for the new ones."""
    draws = []
    draw_noise = tracker._draw_noise

    def spy(seed, n):
        assert not tracker._last_draws
        draws.append((seed, n))
        return draw_noise(seed, n)

    monkeypatch.setattr(tracker, "_draw_noise", spy)
    return draws


def test_warm_memo_run_equals_cold_memo_run(monkeypatch, tracker_designs):
    """In the benchmark's loop order (each tracker on LoG, then HiG) the
    four trackers simulate the two scenarios of a seed once, the two
    scenarios draw their noise once per seed, and every run equals the
    run made with both memos cleared before it."""
    _clear_memos()
    draws = _count_draws(monkeypatch)
    warm = {}
    for seed in (11, 12):
        tracker._simulate_scenario.cache_clear()
        warm.update({(tag, scenario, seed): run_tracking_mc(scenario, d,
                                                            seed, 3000)
                     for tag, d in tracker_designs.items()
                     for scenario in ("LoG", "HiG")})
        info = tracker._simulate_scenario.cache_info()
        assert (info.misses, info.hits) == (2, 6)
    assert draws == [(11, 3000), (12, 3000)]
    for (tag, scenario, seed), run in warm.items():
        _clear_memos()
        cold = run_tracking_mc(scenario, tracker_designs[tag], seed, 3000)
        _assert_runs_equal(run, cold)


def test_any_scenario_order_draws_once(monkeypatch, tracker_designs):
    """HiG before LoG draws the noise once, as the benchmark's order does,
    and so does a caller that runs one scenario again after its instance
    has left the scenario memo; every run equals a fresh simulation."""
    d = tracker_designs["C"]
    _clear_memos()
    draws = _count_draws(monkeypatch)
    hig = run_tracking_mc("HiG", d, 5, 2000)
    log = run_tracking_mc("LoG", d, 5, 2000)
    tracker._simulate_scenario.cache_clear()
    assert run_tracking_mc("LoG", d, 5, 2000).rms_error == log.rms_error
    assert draws == [(5, 2000)]
    for run, scenario in ((log, "LoG"), (hig, "HiG")):
        _clear_memos()
        _assert_runs_equal(run, run_tracking_mc(scenario, d, 5, 2000))


def test_memo_is_read_only_and_bounded(tracker_designs):
    _clear_memos()
    d = tracker_designs["A"]
    for seed in range(MEMO_SCENARIOS + 2):
        run = run_tracking_mc("LoG", d, seed, 1000)
        assert tracker._simulate_scenario.cache_info().currsize \
            <= MEMO_SCENARIOS
        assert list(tracker._last_draws) == [(seed, 1000)]
    for a in (run.truth_x, run.truth_y, run.meas_x, run.meas_y):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("seed", [None, True, -1, 2.0, "3"])
def test_tracking_seed_must_be_a_non_negative_integer(tracker_designs,
                                                      seed):
    """None drew fresh OS entropy and True ran as seed 1; a memo keyed on
    the seed would freeze the first and alias the second."""
    with pytest.raises(ValueError, match="non-negative integer"):
        run_tracking_mc("LoG", tracker_designs["A"], seed, 1000)


@pytest.mark.parametrize("n_samples", [3000.0, True, None, "3000", -1])
def test_tracking_sample_count_must_be_a_non_negative_integer(
        tracker_designs, n_samples):
    """A float count failed deep in NumPy with a TypeError."""
    with pytest.raises(ValueError,
                       match="n_samples must be a non-negative integer"):
        run_tracking_mc("LoG", tracker_designs["A"], 1, n_samples)


def test_numpy_integer_sample_count_is_one_memo_key(tracker_designs):
    """np.int64(3000) and 3000 were two keys of the typed memos, so the
    same draws were simulated twice; both now key the same entry of each
    memo, as a plain int."""
    _clear_memos()
    d = tracker_designs["A"]
    run = run_tracking_mc("LoG", d, 1, np.int64(3000))
    assert run_tracking_mc("LoG", d, 1, 3000).rms_error == run.rms_error
    info = tracker._simulate_scenario.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    [key] = tracker._last_draws
    assert key == (1, 3000) and type(key[1]) is int


def test_numpy_integer_tracking_seed_is_the_same_seed(tracker_designs):
    d = tracker_designs["A"]
    assert run_tracking_mc("HiG", d, np.uint64(4), 1000).rms_error == \
        run_tracking_mc("HiG", d, 4, 1000).rms_error


def _orbit_oracle(design, f_orb, r_orb):
    """Oracle: the orbit simulated with every output of each axis filtered
    (_per_axis_track)."""
    decay = np.log(1e-14) / np.log(np.max(np.abs(design.poles)))
    n_samples = int(np.ceil(10 / f_orb)) + int(np.ceil(decay))
    n = np.arange(n_samples)
    phase = 2.0 * np.pi * f_orb * n
    est_x, est_y, _, _ = _per_axis_track(design, r_orb * np.cos(phase),
                                         r_orb * np.sin(phase))
    ex, ey = est_x[-1], est_y[-1]
    r_est = float(np.hypot(ex, ey))
    if r_est < NULL_RADIUS_TOL * r_orb:
        return OrbitError(eps_r=r_est - r_orb, eps_theta=0.0)
    eps_theta = float(np.arctan2(ey, ex)) \
        - 2.0 * np.pi * f_orb * (n_samples - 1 - design.q)
    return OrbitError(eps_r=r_est - r_orb,
                      eps_theta=float((eps_theta + np.pi) % (2.0 * np.pi)
                                      - np.pi))


def test_orbit_simulation_equals_per_axis_oracle(tracker_designs):
    """Filtering only the smoother output, over both axes at once,
    changes no bit of the orbit errors."""
    for tag, d in tracker_designs.items():
        for f_orb in DEFAULT_ORBIT_RATES:
            assert orbit_simulation(d, f_orb, 1.5) == \
                _orbit_oracle(d, f_orb, 1.5), (tag, f_orb)


@pytest.mark.parametrize("rates", [DEFAULT_ORBIT_RATES,
                                   (0.0, 0.003, 0.07, 0.2, 0.49)])
def test_orbit_check_equals_per_rate_errors(tracker_designs, rates):
    """One response at every rate changes no bit of the predicted errors,
    and the measured ones are orbit_simulation's."""
    for tag, d in tracker_designs.items():
        rows = orbit_check(d, rates)
        assert [row["f_orb"] for row in rows] == list(rates)
        for f_orb, row in zip(rates, rows):
            measured = orbit_simulation(d, f_orb, 1.0)
            predicted = orbit_steady_state(d, f_orb, 1.0)
            assert row == {"f_orb": f_orb,
                           "eps_r_predicted": predicted.eps_r,
                           "eps_r_measured": measured.eps_r,
                           "eps_theta_predicted": predicted.eps_theta,
                           "eps_theta_measured": measured.eps_theta}, \
                (tag, f_orb)


@pytest.mark.parametrize("f_orb", [-0.01, 0.5, 0.7, np.inf, np.nan])
def test_orbit_simulation_rate_domain(tracker_designs, f_orb):
    """The rates orbit_steady_state rejects: these raised IndexError or a
    NaN conversion error, returned NaN, or simulated an aliased orbit."""
    with pytest.raises(ValueError,
                       match=r"f_orb must lie in \[0, 0.5\) cycles/sample"):
        orbit_simulation(tracker_designs["B"], f_orb, 1.0)


@pytest.mark.parametrize("r_orb", [0.0, -1.0, np.nan, np.inf])
def test_orbit_radius_domain(tracker_designs, r_orb):
    """A radius of 0 or -1 measured an error of another orbit than the one
    predicted (eps_theta -1.594 against -0.0061 at 0), NaN gave NaN and an
    infinite radius a RuntimeWarning and a prediction of -inf."""
    d = tracker_designs["B"]
    for orbit_error in (orbit_simulation, orbit_steady_state):
        with pytest.raises(ValueError,
                           match="r_orb must be a positive finite number"):
            orbit_error(d, 0.01, r_orb)
