"""Teager-Kaiser detectors, reference filters, and the ROC machinery."""

import functools

import numpy as np
import pytest

from maxflat import detector
from maxflat.analyze import frequency_response
from maxflat.detector import (BLOCK, DETECT_FS, DETECT_N, DETECTOR_TAGS,
                              FALSE_WINDOW, MEMO_BLOCKS, P_INT, P_SIG,
                              PULSE_SAMPLE, TRUE_WINDOW, build_detector,
                              block_statistics, bw0_reference,
                              detector_metrics, roc_from_statistics,
                              run_detection_mc, tk_energy_derivatives)
from maxflat.procsim import (InputSpec, ProcessParams, discretize_process,
                             generate_waveform, oscillator_response,
                             scenario_params)
from maxflat.realize import run_filter

# ---------------------------------------------------------------------------
# Three-point TK energy


def tk_energy_threepoint(x, causal, t_s):
    """The three-point TK energy of whole rows along the last axis, through
    the windowed kernel every TK pipeline runs; rows of fewer than 3
    samples raise ValueError."""
    x, lo, hi = detector._rows_and_window(x, None)
    return detector._tk_window(x, 0, lo, hi, causal, t_s)


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
    """The one pass over the row-major buffer is bit for bit the plain
    expression along the last axis, with zero edge samples, for 1-D, 2-D
    and 3-D inputs, a single row, rows of 3 samples, and read-only,
    sliced and reversed (negative-stride) views; the input is unchanged."""
    t_s = 1.0 / DETECT_FS
    x = rng.normal(size=(4, 100))
    x.flags.writeable = False
    cube = rng.normal(size=(2, 3, 50))
    inputs = (x, x[:, ::-1], x[1:3, 10:60], x[::2, ::3], x[:1], x[2],
              x[:, :3], x[0, :3], cube, cube[:, ::-1, 5:-5])
    for rows in inputs:
        before = rows.copy()
        ref = np.zeros_like(rows)
        energy = (rows[..., 1:-1] ** 2
                  - rows[..., :-2] * rows[..., 2:]) / t_s ** 2
        if causal:
            ref[..., 2:] = energy
        else:
            ref[..., 1:-1] = energy
        got = tk_energy_threepoint(rows, causal, t_s)
        assert got.shape == rows.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(rows, before)


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


def _roc_with_unique(stat_true, stat_false):
    """(p_fa, p_d, auc) with the thresholds built by np.unique, as they
    were before the distinct-value mask."""
    thresholds = np.concatenate([[-np.inf],
                                 np.unique(np.concatenate([stat_true,
                                                           stat_false]))])
    st, sf = np.sort(stat_true), np.sort(stat_false)
    p_d = 1.0 - np.searchsorted(st, thresholds, side="right") / len(st)
    p_fa = 1.0 - np.searchsorted(sf, thresholds, side="right") / len(sf)
    order = np.lexsort((p_d, p_fa))
    p_fa, p_d = p_fa[order], p_d[order]
    return p_fa, p_d, float(np.trapezoid(p_d, p_fa))


def test_roc_thresholds_equal_those_of_unique():
    """Distinct values, ties within and across the two sides, -inf and
    signed zeros, and single statistics give the ROC of np.unique's
    thresholds, bit for bit."""
    rng = np.random.default_rng(7)
    cases = [(rng.normal(1.0, 1.0, 300), rng.normal(size=500)),
             (np.round(rng.normal(size=200), 1),
              np.round(rng.normal(size=200), 1)),
             (np.array([2.0, 2.0, -np.inf]), np.array([-np.inf, 2.0, 1.0])),
             (np.array([0.0, -0.0, 1.0]), np.array([-0.0, 0.0])),
             (np.array([3.0]), np.array([3.0]))]
    for stat_true, stat_false in cases:
        roc = roc_from_statistics(stat_true, stat_false)
        p_fa, p_d, auc = _roc_with_unique(stat_true, stat_false)
        assert np.array_equal(roc.p_fa, p_fa)
        assert np.array_equal(roc.p_d, p_d)
        assert roc.auc == auc


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


def _signal_params(rng_sig, t_s):
    """The process of a detection-study signal: alpha_tau = 4 about the
    centre frequency 0.05 cyc/smp, and the frequency f~ drawn from
    Uniform(0, 0.05)."""
    return ProcessParams(tau_c=4.0 * t_s / 0.05,
                         lambda_c=t_s / rng_sig.uniform(0.0, 0.05))


def _loop_trial_statistics(det, seed, trial, deterministic_signal):
    """One trial as the per-trial loop computed it before trials were
    blocked: spawned streams, three waveforms from generate_waveform (an
    lfilter of each input) and one 1-D detector call per instance."""
    t_s = 1.0 / DETECT_FS
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    rng_sig, rng_int1, rng_int2 = (np.random.default_rng(s)
                                   for s in ss.spawn(3))
    sig_proc = discretize_process(_signal_params(rng_sig, t_s), t_s)
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
    def vandal(x, window):
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


# ---------------------------------------------------------------------------
# Stream seeds hashed in one pass


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5,
                                  2**128 + 7])
@pytest.mark.parametrize("first, count", [(0, 3), (2**32 - 2, 4)])
def test_trial_seed_states_equal_seed_sequence(seed, first, count):
    """Every seed width, and trials on both sides of 2**32, where a
    trial index takes a second word."""
    got = detector._trial_seed_states(seed, first, count)
    want = [np.random.SeedSequence(seed, spawn_key=(t, j))
            .generate_state(4, np.uint64)
            for t in range(first, first + count) for j in range(3)]
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


def test_trial_seed_states_mix_each_seed_once():
    """Interleaved seeds each get their own states, from a bounded memo
    that mixes the words of a seed once per width of the trial indices,
    here 1 and 2 words, and then hands them out again."""
    detector._seed_pool.cache_clear()
    for seed in (0, 2**128 + 7, 0, 2**128 + 7):
        for first in (0, 2**32 - 2):
            got = detector._trial_seed_states(seed, first, 4)
            want = [np.random.SeedSequence(seed, spawn_key=(t, j))
                    .generate_state(4, np.uint64)
                    for t in range(first, first + 4) for j in range(3)]
            assert np.array_equal(got, want), (seed, first)
    info = detector._seed_pool.cache_info()
    assert (info.misses, info.hits) == (4, 8)
    for seed in range(2 * info.maxsize):
        assert np.array_equal(
            detector._trial_seed_states(seed, 0, 1),
            [np.random.SeedSequence(seed, spawn_key=(0, j))
             .generate_state(4, np.uint64) for j in range(3)])
        assert detector._seed_pool.cache_info().currsize <= info.maxsize


def _per_trial_generator_block(seed, first, count, deterministic_signal):
    """The detector inputs of a block as they were drawn before the
    streams' seeds were hashed in one pass: one default_rng per stream,
    built trial by trial from its SeedSequence."""
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
        sig_params.append(_signal_params(rng_sig, t_s))
        if not deterministic_signal:
            pulse[i] = rng_sig.normal(0.0, pulse_scale, n_pulse)
        x[i] = rng_int1.normal(0.0, int_scale, DETECT_N)
        x[count + i] = rng_int2.normal(0.0, int_scale, DETECT_N)
    b, a = discretize_process(
        scenario_params("detect", "interference", f_s=DETECT_FS),
        t_s).transfer()
    x = run_filter(b, a, x)
    x[:count, PULSE_SAMPLE:] += oscillator_response(
        [p.tau_c for p in sig_params], [p.lambda_c for p in sig_params],
        t_s, pulse, DETECT_N - PULSE_SAMPLE)
    return x


@pytest.mark.parametrize("deterministic_signal", [True, False])
@pytest.mark.parametrize("seed, first, count", [(0, 0, BLOCK),
                                                (2**64 + 5, 2**32 - 2, 4),
                                                (2**128 + 7, 2**32 - 2, 4)])
def test_simulated_block_equals_per_trial_generators(
        seed, first, count, deterministic_signal):
    detector._simulate_block.cache_clear()
    got = detector._simulate_block(seed, first, count, deterministic_signal)
    want = _per_trial_generator_block(seed, first, count,
                                      deterministic_signal)
    assert np.array_equal(got, want)


def test_interference_transfer_is_built_once_read_only():
    """Every block filters its interference with one (b, a), built on the
    first simulation: a fresh build's arrays, which no caller can change."""
    b, a = detector._interference_transfer()
    want_b, want_a = discretize_process(
        scenario_params("detect", "interference", f_s=DETECT_FS),
        1.0 / DETECT_FS).transfer()
    assert np.array_equal(b, want_b) and np.array_equal(a, want_a)
    assert not b.flags.writeable and not a.flags.writeable
    again = detector._interference_transfer()
    assert again[0] is b and again[1] is a


# ---------------------------------------------------------------------------
# Detectors compute only the samples their windows score

#: Windows at both row edges, the scored windows and single samples.
WINDOWS = [(lo, hi) for lo in (0, 1, 2) for hi in (DETECT_N - 2, DETECT_N - 1)
           ] + [TRUE_WINDOW, FALSE_WINDOW, (0, 0), (1, 1), (2, 2),
                (500, 500), (DETECT_N - 2, DETECT_N - 2),
                (DETECT_N - 1, DETECT_N - 1)]


@pytest.mark.parametrize("deterministic_signal", [True, False])
@pytest.mark.parametrize("tag", DETECTOR_TAGS)
def test_window_energy_equals_full_row_energy(detectors, tag,
                                              deterministic_signal):
    """A windowed call gives the full rows' energy on its window, bit for
    bit: the signal and the interference-only rows of a one-trial block
    and of a partial last block (trials 32-36), and a single 1-D row."""
    det = detectors[tag]
    for first, count in ((36, 1), (2 * BLOCK, 5)):
        x = detector._simulate_block(2, first, count, deterministic_signal)
        for rows in (x[:count], x[count:], x[0]):
            full = det(rows)
            assert full.shape == rows.shape
            for lo, hi in WINDOWS:
                got = det(rows, (lo, hi))
                assert got.shape == rows.shape[:-1] + (hi + 1 - lo,)
                assert np.array_equal(got, full[..., lo:hi + 1]), (lo, hi)


@pytest.mark.parametrize("window", [(-1, 5), (5, 4), (0, DETECT_N)])
def test_window_must_lie_within_the_row(detectors, window):
    x = detector._simulate_block(0, 0, 1, True)
    for det in detectors.values():
        with pytest.raises(ValueError, match="does not lie within"):
            det(x, window)


@pytest.mark.parametrize("deterministic_signal", [True, False])
@pytest.mark.parametrize("tag", DETECTOR_TAGS)
def test_block_statistics_equal_full_row_scoring(detectors, tag,
                                                 deterministic_signal):
    """Scoring as every detector was scored before reaches were declared:
    one call on all stacked full rows, then each row's window maximum."""
    det = detectors[tag]
    got = block_statistics(det, 5, 3, BLOCK, deterministic_signal)
    x = detector._simulate_block(5, 3, BLOCK, deterministic_signal)
    e = det(x)
    want_true = e[:BLOCK, TRUE_WINDOW[0]:TRUE_WINDOW[1] + 1].max(axis=-1)
    want_false = e[BLOCK:, FALSE_WINDOW[0]:FALSE_WINDOW[1] + 1].max(axis=-1)
    assert np.array_equal(got[0], want_true)
    assert np.array_equal(got[1], want_false)


def _wraps_wrapper(pipeline, calls):
    @functools.wraps(pipeline)
    def wrapped(*args):
        calls.append((args[0].shape,) + args[1:])
        return pipeline(*args)
    return wrapped


def _bare_wrapper(pipeline, calls):
    return lambda rows, window: (calls.append((rows.shape, window))
                                 or pipeline(rows, window))


@pytest.mark.parametrize("wrap, count", [
    pytest.param(_wraps_wrapper, count, id=str(count))
    for count in (1, 5, BLOCK)] + [
    pytest.param(_bare_wrapper, count, id=f"bare-{count}")
    for count in (1, 5, BLOCK)])
def test_wrapper_is_called_for_every_scoring_call(detectors, wrap, count):
    """A functools.wraps wrapper, such as the benchmark's tracer, and a
    bare lambda both get every scoring call: the signal rows with
    TRUE_WINDOW, then the interference-only rows with FALSE_WINDOW."""
    pipeline = detectors["IIR_BW1_NC"]
    calls = []
    got = block_statistics(wrap(pipeline, calls), 0, 0, count)
    assert calls == [((count, DETECT_N), TRUE_WINDOW),
                     ((count, DETECT_N), FALSE_WINDOW)]
    want = block_statistics(pipeline, 0, 0, count)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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


# ---------------------------------------------------------------------------
# IIR_BW1's shared-pole bank against one recursion per output


def _bw1_per_output_pipeline():
    """IIR_BW1 with each of its three outputs filtered by its own
    recursion up to the window end, then TK on the window."""
    d = detector.bw1_filterbank()

    def detect(x, window=None):
        x, lo, hi = detector._rows_and_window(x, window)
        return tk_energy_derivatives(*(
            run_filter(b, d.a, x[..., :hi + 1])[..., lo:] for b in d.b))
    return detect


@pytest.mark.parametrize("seed", range(20))
def test_bw1_statistics_and_roc_equal_per_output_pipeline(detectors, seed):
    """The benchmark's detect-mc rounds 0-2 of seeds 0-19 (200 trials,
    both signal kinds): each statistic agrees with the per-output
    pipeline's within 1e-9 of the largest statistic of its run, and the
    ROC curves and AUCs are identical.  Per statistic, the relative
    difference reached 1.2e-9, because E = y1^2 - y0 y2 cancels."""
    trials = 200
    shared, per_output = detectors["IIR_BW1"], _bw1_per_output_pipeline()
    for r in range(3):
        seed_r = int(np.random.SeedSequence(
            seed, spawn_key=(r,)).generate_state(1)[0])
        for deterministic_signal in (True, False):
            stats = [[np.concatenate(s) for s in zip(*(
                block_statistics(det, seed_r, first,
                                 min(BLOCK, trials - first),
                                 deterministic_signal)
                for first in range(0, trials, BLOCK)))]
                for det in (shared, per_output)]
            for got, want in zip(*stats):
                assert np.all(np.abs(got - want)
                              <= 1e-9 * np.max(np.abs(want)))
            got, want = (roc_from_statistics(*s) for s in stats)
            assert got.auc == want.auc, (r, deterministic_signal)
            assert np.array_equal(got.p_fa, want.p_fa)
            assert np.array_equal(got.p_d, want.p_d)


@pytest.mark.parametrize("deterministic_signal, auc",
                         [(True, 0.58725225), (False, 0.8194520000000001)])
def test_bw1_auc_of_seed_0(detectors, deterministic_signal, auc):
    """IIR_BW1's seed-0, 2,000-trial AUCs, exactly as one recursion per
    output gave them."""
    roc = run_detection_mc(detectors["IIR_BW1"], 2000, 0,
                           deterministic_signal)
    assert roc.auc == auc
