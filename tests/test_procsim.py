"""Damped-oscillator process model: discretization, normalization, driving."""

import numpy as np
import pytest
from scipy.linalg import expm

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
    y = oscillator_response(params, t_s, u, n)
    assert y.shape == (len(params), n)
    for p, row, u_row in zip(params, y, u):
        x = np.zeros(n)
        x[:n_in] = u_row
        ref = run_process_lss(discretize_process(p, t_s), x)
        assert np.max(np.abs(row - ref)) < 1e-13 * np.max(np.abs(ref))


def test_oscillator_response_input_longer_than_output_rejected():
    with pytest.raises(ValueError, match="n_samples"):
        oscillator_response(PARAM_SETS[:1], 0.001, np.ones((1, 5)), 4)


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
    with pytest.raises(ValueError, match="tau_c"):
        ProcessParams(-1.0, 1.0)
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
    # Unknown-frequency draws are uniform below the nominal value.
    rng = np.random.default_rng(0)
    draws = [scenario_params("detect", "signal", known_freq=False,
                             rng=rng).lambda_c for _ in range(200)]
    freqs = 0.001 / np.array(draws)
    assert np.all((freqs >= 0.0) & (freqs <= 0.05))
    with pytest.raises(ValueError, match="rng"):
        scenario_params("detect", "signal", known_freq=False)


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
