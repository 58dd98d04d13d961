"""Damped-oscillator process model: discretization, normalization, driving."""

import numpy as np
import pytest
from scipy.linalg import expm

from maxflat import procsim
from maxflat.procsim import (DiscreteProcess, InputSpec, ProcessParams,
                             discretize_process, generate_waveform,
                             impulse_energy_closed_form, oscillator_response,
                             scenario_params, verify_normalization)


def run_process_lss(process, x):
    """Reference state-space recursion w[n] = G w[n-1] + H x[n],
    y[n] = C w[n], from rest: the oracle for the transfer-function and
    closed-form paths."""
    w = np.zeros(2)
    y = np.empty(len(x))
    for n, xn in enumerate(x):
        w = process.g @ w + process.h * xn
        y[n] = process.c @ w
    return y


def _continuous_matrices(params):
    s, w = params.sigma_c, params.omega_c
    a = np.array([[0.0, 1.0], [-(s * s + w * w), 2.0 * s]])
    b = np.array([0.0, 1.0])
    return a, b


PARAM_SETS = [
    ProcessParams(tau_c=0.08, lambda_c=0.02),       # pulse, F_s = 1000
    ProcessParams(tau_c=0.0571428571, lambda_c=1.0 / 70.0),  # interference
    ProcessParams(tau_c=16.0, lambda_c=16.0),       # low-gain track signal
    ProcessParams(tau_c=16.0, lambda_c=4.0),        # high-gain track signal
]


@pytest.mark.parametrize("params", PARAM_SETS)
@pytest.mark.parametrize("t_s", [0.001, 0.1])
def test_zoh_matches_matrix_exponential(params, t_s):
    """The closed-form (G, H) must equal the augmented-matrix exponential
    [[A, B], [0, 0]] over one sample period."""
    a, b = _continuous_matrices(params)
    m = np.zeros((3, 3))
    m[:2, :2] = a * t_s
    m[:2, 2] = b * t_s
    e = expm(m)
    proc = discretize_process(params, t_s)
    scale = max(1.0, np.max(np.abs(e[:2, :2])))
    assert np.max(np.abs(proc.g - e[:2, :2])) < 1e-9 * scale
    assert np.max(np.abs(proc.h - e[:2, 2])) < 1e-9 * scale


def test_discrete_eigenvalues_are_exponential_images():
    params = PARAM_SETS[0]
    t_s = 0.001
    proc = discretize_process(params, t_s)
    s = params.sigma_c + 1j * params.omega_c
    eig = np.sort_complex(np.linalg.eigvals(proc.g))
    expected = np.sort_complex(np.array([np.exp(t_s * s),
                                         np.exp(t_s * np.conj(s))]))
    assert np.allclose(eig, expected, atol=1e-12)


def test_small_step_limits():
    """As T_s -> 0, G -> I + A T_s and H -> B T_s."""
    params = PARAM_SETS[2]
    a, b = _continuous_matrices(params)
    t_s = 1e-7
    proc = discretize_process(params, t_s)
    assert np.max(np.abs(proc.g - (np.eye(2) + a * t_s))) < 1e-8
    assert np.max(np.abs(proc.h - b * t_s)) < 1e-8


@pytest.mark.parametrize("params", PARAM_SETS)
def test_impulse_energy_normalization(params):
    assert impulse_energy_closed_form(params) == pytest.approx(1.0,
                                                               rel=1e-12)
    assert verify_normalization(params) == pytest.approx(1.0, rel=1e-5)


def test_zero_power_gives_zeros():
    proc = discretize_process(PARAM_SETS[0], 0.001)
    y = generate_waveform(proc, InputSpec("deterministic", 0, 9, 0.0), 20)
    assert np.all(y == 0.0)


def test_deterministic_pulse_hand_recursion():
    """Five samples of the rectangular drive, stepped by hand."""
    params = PARAM_SETS[0]
    t_s = 0.001
    proc = discretize_process(params, t_s)
    inp = InputSpec("deterministic", 1, 3, 2.5)
    y = generate_waveform(proc, inp, 5)
    amp = np.sqrt(2.5 / t_s)
    x = np.array([0.0, amp, amp, amp, 0.0])
    w = np.zeros(2)
    for n in range(5):
        w = proc.g @ w + proc.h * x[n]
        assert y[n] == pytest.approx(proc.c @ w, rel=1e-9, abs=1e-12)


def test_transfer_matches_state_space(rng):
    proc = discretize_process(PARAM_SETS[1], 0.001)
    inp = InputSpec("stochastic", 0, 499, 0.1)
    y = generate_waveform(proc, inp, 500, rng=np.random.default_rng(3))
    x = np.zeros(500)
    x[0:500] = np.random.default_rng(3).normal(
        0.0, np.sqrt(0.1 / proc.t_s), 500)
    y_ref = run_process_lss(proc, x)
    assert np.max(np.abs(y - y_ref)) < 1e-9 * max(1.0, np.max(np.abs(y_ref)))


@pytest.mark.parametrize("n_in", [1, 51])
def test_oscillator_response_matches_state_recursion(n_in):
    """The closed form agrees with the state recursion, row by row, to
    rounding level of each row's peak; one row has a signal frequency of
    1e-6 cycles/sample, where the two poles nearly coincide."""
    t_s, n = 0.001, 600
    params = PARAM_SETS + [ProcessParams(tau_c=0.08, lambda_c=1e3)]
    u = np.random.default_rng(5).normal(0.0, 30.0, (len(params), n_in))
    y = oscillator_response([p.tau_c for p in params],
                            [p.lambda_c for p in params], t_s, u, n)
    assert y.shape == (len(params), n)
    for p, row, u_row in zip(params, y, u):
        x = np.zeros(n)
        x[:n_in] = u_row
        ref = run_process_lss(discretize_process(p, t_s), x)
        assert np.max(np.abs(row - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_in", [1, 51, 1000])
def test_oscillator_response_equals_gathered_expression(n_in):
    """Scaling the samples past the input by the last partial sum through
    broadcasting gives, bit for bit, the product with the gathered
    (rows, n) copy of the partial sums that the closed form used before,
    for a pulse of one sample, of 51 and as long as the output; among
    them detection-study signals of frequency f~ ~ Uniform(0, 0.05)."""
    from maxflat.procsim import _zoh

    t_s, n = 0.001, 1000
    params = [ProcessParams(tau_c=4.0 * t_s / 0.05, lambda_c=t_s / np.random
                            .default_rng(seed).uniform(0.0, 0.05))
              for seed in range(5)] + PARAM_SETS
    u = np.random.default_rng(6).normal(0.0, 30.0, (len(params), n_in))
    s = np.array([p.sigma_c for p in params])
    w = np.array([p.omega_c for p in params])
    b0 = np.array([p.b0 for p in params])
    _, (h0, h1) = _zoh(s, w, t_s)
    mu = ((s + 1j * w) * t_s)[:, None]
    beta = (b0 * (h0 - 1j * (h1 - s * h0) / w))[:, None]
    partial = beta * np.cumsum(u * np.exp(-mu * np.arange(float(n_in))),
                               axis=-1)
    m = int(np.ceil(np.sqrt(n)))
    steps = np.arange(float(m))
    powers = (np.exp(mu * m * steps)[:, :, None]
              * np.exp(mu * steps)[:, None, :]).reshape(len(w), -1)
    k = np.arange(n)
    want = (powers[:, :n] * partial[:, np.minimum(k, n_in - 1)]).real
    assert np.array_equal(oscillator_response(
        [p.tau_c for p in params], [p.lambda_c for p in params], t_s, u, n),
        want)


def test_oscillator_response_input_longer_than_output_rejected():
    with pytest.raises(ValueError, match="n_samples"):
        oscillator_response([0.08], [0.02], 0.001, np.ones((1, 5)), 4)
    for n_out in (-1, 5):
        with pytest.raises(ValueError, match="n_out <= n_samples"):
            oscillator_response([0.08], [0.02], 0.001, np.ones((1, 2)), 4,
                                n_out)


@pytest.mark.parametrize("n_in", [1, 51])
def test_detect_signal_response_prefix_is_the_full_row_start(n_in):
    """Every prefix of a detection-study signal, from none of its samples
    to the full row of DETECT_N - PULSE_SAMPLE, is bit for bit the start
    of the full-row response, for a pulse of one sample and of 51, also
    for prefixes shorter than the pulse."""
    t_s = 1.0 / procsim.DETECT_FS
    rng = np.random.default_rng(4)
    f_tilde = rng.uniform(0.0, procsim.SIGNAL_F_C, 8)
    u = rng.normal(0.0, 30.0, (8, n_in))
    n_row = procsim.DETECT_N - procsim.PULSE_SAMPLE
    full = procsim.detect_signal_response(f_tilde, t_s, u, n_row)
    assert full.shape == (8, n_row)
    for n in range(n_row + 1):
        assert np.array_equal(
            procsim.detect_signal_response(f_tilde, t_s, u, n),
            full[:, :n]), n


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf, -np.inf])
def test_oscillator_response_rejects_non_positive_or_non_finite_times(bad):
    """-1 returned a row of NaN with a RuntimeWarning, and an infinite
    lambda_c raised a NumericalError for Omega_c = 0."""
    u = np.ones((2, 1))
    with pytest.raises(ValueError, match="every tau_c must be a positive "
                                         "finite number"):
        oscillator_response([0.08, bad], [0.02, 0.02], 0.001, u, 4)
    with pytest.raises(ValueError, match="every lambda_c must be a positive "
                                         "finite number"):
        oscillator_response([0.08, 0.08], [bad, 0.02], 0.001, u, 4)


def test_generation_is_bitwise_deterministic():
    proc = discretize_process(PARAM_SETS[0], 0.001)
    inp = InputSpec("stochastic", 10, 400, 1.0)
    y1 = generate_waveform(proc, inp, 500, rng=np.random.default_rng(42))
    y2 = generate_waveform(proc, inp, 500, rng=np.random.default_rng(42))
    assert np.array_equal(y1, y2)


def test_stochastic_input_requires_rng():
    """A stochastic input draws only from the generator it is given."""
    proc = discretize_process(PARAM_SETS[0], 0.001)
    with pytest.raises(ValueError, match="rng"):
        generate_waveform(proc, InputSpec("stochastic", 10, 400, 1.0), 500)


def test_input_validation():
    with pytest.raises(ValueError, match="n0 <= n1"):
        InputSpec("deterministic", 5, 3, 1.0)
    with pytest.raises(ValueError):
        InputSpec("ramp", 0, 3, 1.0)
    for bad in (-1.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tau_c must be a positive "
                                             "finite number"):
            ProcessParams(bad, 1.0)
        with pytest.raises(ValueError, match="lambda_c must be a positive "
                                             "finite number"):
            ProcessParams(1.0, bad)
    with pytest.raises(ValueError, match="T_s"):
        discretize_process(PARAM_SETS[0], 0.0)
    proc = discretize_process(PARAM_SETS[0], 0.001)
    with pytest.raises(ValueError, match="0 <= n0"):
        generate_waveform(proc, InputSpec("deterministic", 0, 600, 1.0), 500)


def test_scenario_params_detection():
    sig = scenario_params("detect", "signal")
    assert sig.tau_c == pytest.approx(0.08)
    assert sig.lambda_c == pytest.approx(0.02)
    intf = scenario_params("detect", "interference")
    assert intf.tau_c == pytest.approx(4.0 * 0.001 / 0.07)
    assert intf.lambda_c == pytest.approx(0.001 / 0.07)


def test_scenario_params_tracking():
    f_s = 10.0
    lo = scenario_params("track", "signal", gain="lo", f_s=f_s)
    hi = scenario_params("track", "signal", gain="hi", f_s=f_s)
    intf = scenario_params("track", "interference", f_s=f_s)
    assert lo.tau_c == pytest.approx(8.0 * 0.1 / 0.05)
    assert lo.lambda_c == pytest.approx(8.0 * 0.1 / 0.05)
    assert hi.lambda_c == pytest.approx(2.0 * 0.1 / 0.05)
    assert intf.lambda_c == pytest.approx(1.0 * 0.1 / 0.07)
    # Low-gain signal centre frequency in cycles/sample.
    assert 0.1 / lo.lambda_c == pytest.approx(6.25e-3)


#: scenario_params' (tau_c, lambda_c) before the study numbers moved beside
#: it, by (section, role, gain) and f_s; repr round-trips each float.
_SCENARIO_PARAMS = {
    ("detect", "signal"): {1000.0: (0.08, 0.02), 10.0: (8.0, 2.0)},
    ("detect", "interference"): {
        1000.0: (0.05714285714285714, 0.014285714285714285),
        10.0: (5.714285714285714, 1.4285714285714286)},
    ("track", "signal", "lo"): {1000.0: (0.16, 0.16), 10.0: (16.0, 16.0)},
    ("track", "signal", "hi"): {1000.0: (0.16, 0.04), 10.0: (16.0, 4.0)},
    ("track", "interference"): {
        1000.0: (0.11428571428571428, 0.014285714285714285),
        10.0: (11.428571428571429, 1.4285714285714286)},
}


@pytest.mark.parametrize("section", ["detect", "track"])
@pytest.mark.parametrize("role", ["signal", "interference"])
@pytest.mark.parametrize("gain", ["lo", "hi"])
@pytest.mark.parametrize("f_s", [1000.0, 10.0])
def test_scenario_params_bit_for_bit(section, role, gain, f_s):
    """Every (section, role, gain) at both study rates gives the floats it
    gave with the centre frequencies and rates spelled out in place; the
    default rate is DETECT_FS."""
    key = (section, role, gain) if (section, role) == ("track", "signal") \
        else (section, role)
    p = scenario_params(section, role, gain, f_s)
    assert (p.tau_c, p.lambda_c) == _SCENARIO_PARAMS[key][f_s]
    assert scenario_params(section, role, gain) \
        == scenario_params(section, role, gain, procsim.DETECT_FS)


def test_study_filters_use_the_centre_frequencies(monkeypatch):
    """Every study filter's band edge is SIGNAL_F_C and its null
    INTERFERENCE_F_C: BW0's Butterworth cutoff, BW1's and BW1_NC's specs,
    the frequencies detector_metrics reads, every tracker's spec and the
    last two orbit rates."""
    from maxflat import analyze, detector, tracker

    f_c, f_i = procsim.SIGNAL_F_C, procsim.INTERFERENCE_F_C
    cutoffs, specs, omegas = [], [], set()
    real_poles = detector.butterworth_s_poles
    monkeypatch.setattr(detector, "butterworth_s_poles", lambda n, w_c: (
        cutoffs.append(w_c), real_poles(n, w_c))[1])
    for name in ("design_filterbank", "noncausal_design"):
        real = getattr(detector, name)
        monkeypatch.setattr(detector, name, lambda spec, real=real: (
            specs.append(spec), real(spec))[1])
    real_response = analyze.frequency_response
    monkeypatch.setattr(analyze, "frequency_response", lambda b, a, w: (
        omegas.update(np.atleast_1d(w).tolist()), real_response(b, a, w))[1])
    for tag in detector.DETECTOR_TAGS:
        detector.detector_metrics(tag)
    assert set(cutoffs) == {2.0 * np.pi * f_c * procsim.DETECT_FS}
    assert len(specs) == 2 and all(
        (s.f_s, s.f_wb, s.f_nb) == (procsim.DETECT_FS, f_c, f_i)
        for s in specs)
    assert {2 * np.pi * f_c, 2 * np.pi * f_i} <= omegas
    for tag, (_, k_w_nb) in tracker.TRACKER_CONFIGS.items():
        spec = tracker.tracker_spec(tag)
        assert (spec.f_s, spec.f_wb, spec.f_nb) \
            == (procsim.TRACK_FS, f_c, f_i if k_w_nb else None)
    assert tracker.DEFAULT_ORBIT_RATES[-2:] == (f_c, f_i)
    # detector and tracker re-export procsim's numbers.
    for name in ("DETECT_FS", "DETECT_N", "PULSE_SAMPLE", "TRUE_WINDOW",
                 "FALSE_WINDOW", "P_SIG", "P_INT"):
        assert getattr(detector, name) is getattr(procsim, name)
    for name in ("TRACK_FS", "P_SIG_TRACK", "P_INT_TRACK"):
        assert getattr(tracker, name) is getattr(procsim, name)


@pytest.mark.parametrize("section", ["detect", "track"])
def test_scenario_params_rejects_unknown_role_and_gain(section):
    """A role other than "signal" gave the interference, and a gain other
    than "lo" the high-gain signal."""
    with pytest.raises(ValueError, match="role must be signal or "
                                         "interference"):
        scenario_params(section, "bogus")
    with pytest.raises(ValueError, match="gain must be lo or hi"):
        scenario_params(section, "signal", gain="mid", f_s=10.0)


def test_stationary_variance_near_drive_power(rng):
    """The normalization makes the stationary output variance approach the
    drive power (loose statistical check)."""
    proc = discretize_process(PARAM_SETS[0], 0.001)
    p_c = 2.0
    n = 200000
    y = generate_waveform(proc, InputSpec("stochastic", 0, n - 1, p_c), n,
                          rng=rng)
    var = float(np.var(y[5000:]))
    assert var == pytest.approx(p_c, rel=0.1)
