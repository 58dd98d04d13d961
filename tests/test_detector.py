"""Teager-Kaiser detectors, reference filters, and the ROC machinery."""

import numpy as np
import pytest

from maxflat import detector
from maxflat.analyze import frequency_response
from maxflat.detector import (BLOCK, DETECT_FS, DETECT_N, DETECTOR_TAGS,
                              FALSE_WINDOW, MEMO_BLOCKS, P_INT, P_SIG,
                              PULSE_SAMPLE, TRUE_WINDOW, build_detector,
                              block_statistics, bw0_reference,
                              detector_metrics, roc_from_statistics,
                              run_detection_mc, tk_energy_derivatives,
                              tk_energy_threepoint)
from maxflat.procsim import (InputSpec, discretize_process,
                             generate_waveform, scenario_params)

# ---------------------------------------------------------------------------
# Three-point TK energy


def test_tk_energy_of_constant_is_zero():
    e = tk_energy_threepoint(np.full(50, 4.0), causal=True, t_s=0.1)
    assert np.allclose(e, 0.0)
    e = tk_energy_threepoint(np.full(50, 4.0), causal=False, t_s=0.1)
    assert np.allclose(e, 0.0)


def test_tk_energy_of_cosine_is_amplitude_frequency_product():
    """For x[n] = A cos(w n + phi), the TK energy is A^2 sin^2(w) / T_s^2
    at every interior sample."""
    t_s, amp, w = 0.01, 1.7, 0.3
    n = np.arange(400, dtype=float)
    x = amp * np.cos(w * n + 0.4)
    expected = amp ** 2 * np.sin(w) ** 2 / t_s ** 2
    e = tk_energy_threepoint(x, causal=False, t_s=t_s)
    assert np.allclose(e[1:-1], expected, rtol=1e-9)
    e = tk_energy_threepoint(x, causal=True, t_s=t_s)
    assert np.allclose(e[2:], expected, rtol=1e-9)


def test_tk_energy_alignment_conventions():
    x = np.zeros(9)
    x[4] = 1.0
    e_nc = tk_energy_threepoint(x, causal=False, t_s=1.0)
    e_c = tk_energy_threepoint(x, causal=True, t_s=1.0)
    # Non-causal peaks with the sample, causal one step later.
    assert np.argmax(e_nc) == 4
    assert np.argmax(e_c) == 5


def test_tk_energy_from_derivative_outputs():
    y0 = np.array([1.0, 2.0])
    y1 = np.array([3.0, 0.0])
    y2 = np.array([1.0, -1.0])
    assert np.allclose(tk_energy_derivatives(y0, y1, y2), [8.0, 2.0])
    with pytest.raises(ValueError, match="equal lengths"):
        tk_energy_derivatives(y0, y1, np.zeros(3))
    # Rows of equal count but unequal sample length.
    with pytest.raises(ValueError, match="equal lengths"):
        tk_energy_derivatives(np.zeros((2, 5)), np.zeros((2, 5)),
                              np.zeros((2, 4)))


@pytest.mark.parametrize("causal", [True, False])
def test_tk_energy_equals_reference_expression(rng, causal):
    """The in-place evaluation is bit for bit the plain expression, also
    on read-only and reversed (negative-stride) rows."""
    t_s = 1.0 / DETECT_FS
    x = rng.normal(size=(4, 100))
    x.flags.writeable = False
    for rows in (x, x[:, ::-1]):
        ref = np.zeros_like(rows)
        energy = (rows[:, 1:-1] ** 2 - rows[:, :-2] * rows[:, 2:]) / t_s ** 2
        if causal:
            ref[:, 2:] = energy
        else:
            ref[:, 1:-1] = energy
        assert np.array_equal(tk_energy_threepoint(rows, causal, t_s), ref)


def test_tk_energy_input_validation():
    with pytest.raises(ValueError, match="3 samples"):
        tk_energy_threepoint(np.zeros(2), causal=True, t_s=1.0)


# ---------------------------------------------------------------------------
# Reference smoothers


def test_bw0_reference_magnitudes():
    wb, nb = 2 * np.pi * 0.05, 2 * np.pi * 0.07
    b, a = bw0_reference(causal=True)
    h = lambda w: abs(frequency_response(b, a, np.array([w]))[0])
    assert h(0.0) == pytest.approx(1.0, rel=1e-9)
    assert h(wb) == pytest.approx(0.68935, abs=1e-4)
    b, a = bw0_reference(causal=False)
    # Two passes: the effective response is the squared magnitude.
    h2 = lambda w: abs(frequency_response(b, a, np.array([w]))[0]) ** 2
    assert h2(0.0) == pytest.approx(1.0, rel=1e-9)
    assert h2(wb) == pytest.approx(0.48346, abs=1e-4)


def test_bw0_reference_is_stable():
    for causal in (True, False):
        b, a = bw0_reference(causal=causal)
        assert np.all(np.abs(np.roots(a)) < 1.0)


# ---------------------------------------------------------------------------
# Detector construction


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown detector tag"):
        build_detector("IIR_BW2")
    with pytest.raises(ValueError, match="unknown detector tag"):
        detector_metrics("nope")


@pytest.mark.parametrize("tag", DETECTOR_TAGS)
def test_detectors_map_signals_to_energy(tag):
    det = build_detector(tag)
    rng = np.random.default_rng(0)
    e = det(rng.normal(size=1000))
    assert e.shape == (1000,)
    assert np.all(np.isfinite(e))
    # Rows of a 2-D input give exactly the 1-D result of each row.
    x = rng.normal(size=(3, 1000))
    e = det(x)
    assert e.shape == (3, 1000)
    for row, x_row in zip(e, x):
        assert np.array_equal(row, det(x_row))


def test_detector_metrics_reference_values():
    m = detector_metrics("IIR_BW1")
    assert m["q"] == pytest.approx(12.3895, abs=1e-3)
    assert m["sigma0"] == pytest.approx(0.06615, abs=1e-4)
    assert m["h_wb"] == pytest.approx(0.16688, abs=1e-4)
    assert m["h_nb"] < 1e-8
    m = detector_metrics("IIR_BW1_NC")
    assert m["q"] == 0.0
    assert m["sigma0"] == pytest.approx(0.07490, abs=1e-4)
    assert m["h_wb"] == pytest.approx(0.24334, abs=1e-4)
    assert m["h_nb"] < 1e-8
    m = detector_metrics("FIR_NUL_NC")
    assert m["sigma0"] == 1.0 and m["h_wb"] == 1.0


def test_bw1_pulse_envelope_tracks_input_energy():
    """Feed the filterbank detector a clean in-band pulse: the TK energy
    must peak near the (delayed) pulse location."""
    det = build_detector("IIR_BW1")
    n = np.arange(1000, dtype=float)
    x = np.exp(-((n - 400) / 40.0) ** 2) * np.cos(2 * np.pi * 0.02
                                                  * (n - 400))
    e = det(x)
    assert 400 <= int(np.argmax(e)) <= 440


# ---------------------------------------------------------------------------
# ROC machinery


def test_roc_is_monotone_and_bounded():
    rng = np.random.default_rng(1)
    roc = roc_from_statistics(rng.normal(1.0, 1.0, 500),
                              rng.normal(0.0, 1.0, 500))
    assert np.all(np.diff(roc.p_fa) >= 0)
    assert np.all(np.diff(roc.p_d) >= 0)
    assert roc.p_fa.min() == 0.0 and roc.p_fa.max() == 1.0
    assert 0.0 <= roc.auc <= 1.0


def test_roc_auc_of_identical_distributions_is_half():
    rng = np.random.default_rng(2)
    n = 4000
    roc = roc_from_statistics(rng.normal(size=n), rng.normal(size=n))
    assert roc.auc == pytest.approx(0.5, abs=3.0 / np.sqrt(n))


def test_roc_auc_of_separated_distributions_is_one():
    roc = roc_from_statistics(np.arange(100) + 1000.0, np.arange(100) * 1.0)
    assert roc.auc == pytest.approx(1.0)


def _single_trial(det, seed, trial, deterministic_signal=True):
    """(true, false) statistics of one trial: block_statistics over a
    block of one."""
    stat_true, stat_false = block_statistics(det, seed, trial, 1,
                                             deterministic_signal)
    return float(stat_true[0]), float(stat_false[0])


def test_block_statistics_deterministic_given_seed():
    """A block of one trial, simulated afresh, repeats its statistics;
    the next trial draws others."""
    det = build_detector("FIR_NUL_NC")
    a = _single_trial(det, seed=9, trial=3)
    detector._simulate_block.cache_clear()
    b = _single_trial(det, seed=9, trial=3)
    assert a == b
    c = _single_trial(det, seed=9, trial=4)
    assert a != c


def test_run_detection_mc_smoke():
    roc = run_detection_mc(build_detector("IIR_BW1"), trials=20, seed=0)
    assert 0.0 <= roc.auc <= 1.0
    with pytest.raises(ValueError, match="trials"):
        run_detection_mc(build_detector("IIR_BW1"), trials=0, seed=0)


# ---------------------------------------------------------------------------
# Trial blocks


def _mc_statistics(monkeypatch, det, trials, seed, deterministic_signal):
    """The per-trial statistics that run_detection_mc scores."""
    seen = []
    monkeypatch.setattr(detector, "roc_from_statistics",
                        lambda st, sf: seen.append((st, sf)))
    run_detection_mc(det, trials, seed, deterministic_signal)
    (stat_true, stat_false), = seen
    return stat_true, stat_false


def _loop_trial_statistics(det, seed, trial, deterministic_signal):
    """One trial as the per-trial loop computed it before trials were
    blocked: spawned streams, three waveforms from generate_waveform (an
    lfilter of each input) and one 1-D detector call per instance."""
    t_s = 1.0 / DETECT_FS
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    rng_sig, rng_int1, rng_int2 = (np.random.default_rng(s)
                                   for s in ss.spawn(3))
    sig_proc = discretize_process(scenario_params(
        "detect", "signal", known_freq=False, rng=rng_sig, f_s=DETECT_FS),
        t_s)
    int_proc = discretize_process(scenario_params(
        "detect", "interference", f_s=DETECT_FS), t_s)
    if deterministic_signal:
        sig_in = InputSpec("deterministic", PULSE_SAMPLE, PULSE_SAMPLE, P_SIG)
        p_int = P_INT
    else:
        sig_in = InputSpec("stochastic", PULSE_SAMPLE, PULSE_SAMPLE + 50,
                           P_SIG)
        p_int = 1.0
    int_in = InputSpec("stochastic", 0, DETECT_N - 1, p_int)
    sig = generate_waveform(sig_proc, sig_in, DETECT_N, rng=rng_sig)
    int1 = generate_waveform(int_proc, int_in, DETECT_N, rng=rng_int1)
    int2 = generate_waveform(int_proc, int_in, DETECT_N, rng=rng_int2)
    e_true = det(sig + int1)
    e_false = det(int2)
    return (e_true[TRUE_WINDOW[0]:TRUE_WINDOW[1] + 1].max(),
            e_false[FALSE_WINDOW[0]:FALSE_WINDOW[1] + 1].max())


@pytest.fixture(scope="module")
def detectors():
    return {tag: build_detector(tag) for tag in DETECTOR_TAGS}


@pytest.mark.parametrize("deterministic_signal", [True, False])
@pytest.mark.parametrize("tag", DETECTOR_TAGS)
@pytest.mark.parametrize("trials", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                    2 * BLOCK + 3])
def test_block_statistics_equal_single_trials(monkeypatch, detectors, tag,
                                              trials, deterministic_signal):
    """However trials fall into blocks, each trial's statistics are those
    of a block of one."""
    det = detectors[tag]
    stat_true, stat_false = _mc_statistics(monkeypatch, det, trials, 7,
                                           deterministic_signal)
    single = np.array([_single_trial(det, 7, t, deterministic_signal)
                       for t in range(trials)])
    assert np.array_equal(stat_false, single[:, 1])
    assert np.allclose(stat_true, single[:, 0], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("deterministic_signal", [True, False])
@pytest.mark.parametrize("tag", DETECTOR_TAGS)
def test_block_statistics_equal_per_trial_loop(monkeypatch, detectors, tag,
                                               deterministic_signal):
    """The blocked run reproduces the per-trial loop: the false statistic
    is bit-identical (same draws, same filter, same detector arithmetic).
    The true statistic differs only through the pulse, which is now the
    closed-form oscillator response rather than an lfilter recursion; the
    two pulses differ by under 1e-12 of their peak, and IIR_BW1's
    degree-9 direct-form filter amplifies that to at most 1.01e-9 of the
    statistic (seeds 0-3, 2000 trials, both signal kinds; at most 2.4e-12
    for the other detectors).  So the bound is 2e-9 relative."""
    det = detectors[tag]
    trials = 2 * BLOCK + 3
    stat_true, stat_false = _mc_statistics(monkeypatch, det, trials, 0,
                                           deterministic_signal)
    loop = np.array([_loop_trial_statistics(det, 0, t, deterministic_signal)
                     for t in range(trials)])
    assert np.array_equal(stat_false, loop[:, 1])
    assert np.allclose(stat_true, loop[:, 0], rtol=2e-9, atol=0.0)



# ---------------------------------------------------------------------------
# The memo of simulated blocks


@pytest.mark.parametrize("deterministic_signal", [True, False])
def test_warm_memo_statistics_equal_cold(monkeypatch, detectors,
                                         deterministic_signal):
    """Every detector scores the same statistics on blocks that another
    detector simulated as on blocks it simulates itself."""
    trials = 2 * BLOCK + 3
    cold = {}
    for tag in DETECTOR_TAGS:
        detector._simulate_block.cache_clear()
        cold[tag] = _mc_statistics(monkeypatch, detectors[tag], trials, 4,
                                   deterministic_signal)
    detector._simulate_block.cache_clear()
    for tag in DETECTOR_TAGS:
        warm = _mc_statistics(monkeypatch, detectors[tag], trials, 4,
                              deterministic_signal)
        assert np.array_equal(warm[0], cold[tag][0])
        assert np.array_equal(warm[1], cold[tag][1])
    info = detector._simulate_block.cache_info()
    assert (info.misses, info.hits) == (3, 3 * (len(DETECTOR_TAGS) - 1))


def test_detector_writing_its_input_raises_and_corrupts_nothing(
        monkeypatch, detectors):
    def vandal(x):
        x[:] = 0.0
        return x

    detector._simulate_block.cache_clear()
    before = _mc_statistics(monkeypatch, detectors["FIR_NUL_NC"], BLOCK, 2,
                            True)
    with pytest.raises(ValueError, match="read-only"):
        run_detection_mc(vandal, BLOCK, 2)
    after = _mc_statistics(monkeypatch, detectors["FIR_NUL_NC"], BLOCK, 2,
                           True)
    assert detector._simulate_block.cache_info().hits == 2
    assert np.array_equal(after[0], before[0])
    assert np.array_equal(after[1], before[1])


def test_memo_stays_within_its_bound(detectors):
    detector._simulate_block.cache_clear()
    run_detection_mc(detectors["FIR_NUL_NC"], 300, 0)
    assert detector._simulate_block.cache_info().currsize <= MEMO_BLOCKS


def test_signal_kinds_do_not_share_blocks(detectors):
    det = detectors["FIR_NUL_NC"]
    detector._simulate_block.cache_clear()
    deterministic = run_detection_mc(det, BLOCK + 1, 6, True)
    stochastic = run_detection_mc(det, BLOCK + 1, 6, False)
    info = detector._simulate_block.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 4, 4)
    assert deterministic.auc != stochastic.auc


@pytest.mark.parametrize("seed", [None, True, -1, 2.0, "3"])
def test_seed_must_be_a_non_negative_integer(detectors, seed):
    """None used to draw fresh OS entropy on every call, which a memo
    would freeze."""
    det = detectors["FIR_NUL_NC"]
    with pytest.raises(ValueError, match="non-negative integer"):
        run_detection_mc(det, 4, seed)
    with pytest.raises(ValueError, match="non-negative integer"):
        detector.block_statistics(det, seed, 0, 4)


@pytest.mark.parametrize("trials", [200.0, True, None, "4", -1])
def test_trial_count_must_be_a_non_negative_integer(detectors, trials):
    """A float count failed in range() with a TypeError."""
    with pytest.raises(ValueError,
                       match="trials must be a non-negative integer"):
        run_detection_mc(detectors["FIR_NUL_NC"], trials, 0)


def test_numpy_integer_trial_count_is_one_memo_key(detectors):
    """A NumPy count is turned into an int before it keys the block
    memo, so it reuses the blocks of the equal int count."""
    det = detectors["FIR_NUL_NC"]
    detector._simulate_block.cache_clear()
    a = detector.block_statistics(det, 0, np.int64(0), np.int64(4))
    b = detector.block_statistics(det, 0, 0, 4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    info = detector._simulate_block.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_numpy_integer_seed_is_the_same_seed(detectors):
    det = detectors["FIR_NUL_NC"]
    assert _single_trial(det, np.uint64(9), 3) == _single_trial(det, 9, 3)
