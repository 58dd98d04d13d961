"""Maximally-flat IIR smoother/differentiator filterbank toolkit.

Design causal or two-sided recursive filterbanks with Butterworth poles,
exact passband derivative constraints, optional narrowband nulls, and
white-noise-gain-optimal group delay; realize them in canonical state-space
forms; and evaluate them in Teager-Kaiser pulse-detection and 2-D tracking
simulation studies.

The design and analysis names need only NumPy and are imported with the
package.  The names of ``realize``, ``procsim``, ``detector`` and
``tracker``, which load ``scipy.signal``, are imported on first access
(PEP 562), so a process that only designs never pays for SciPy.
"""

import importlib

from .butter import butterworth_s_poles, causal_z_poles, full_z_poles
from .design import (DesignSpec, ConstraintSystem, FilterbankDesign,
                     NumericalError, alpha_table, assemble_system,
                     basis_derivative_column, dc_targets, design_filterbank,
                     gram_matrix, noncausal_design, optimal_group_delay,
                     solve_coefficients, transfer_coefficients,
                     white_noise_gain, wng_polynomial)
from .analyze import (OrbitError, complex_error, frequency_response,
                      ideal_response, measured_group_delay,
                      orbit_steady_state, verify_constraints)

__version__ = "1.0.0"

#: Names resolved on first access, by the submodule that defines them.
_LAZY = {
    "realize": ("StateSpaceRealization", "run_filter", "run_lss",
                "run_noncausal", "to_ccf", "to_dcf", "to_dsf"),
    "procsim": ("DiscreteProcess", "InputSpec", "ProcessParams",
                "discretize_process", "generate_waveform",
                "scenario_params", "verify_normalization"),
    "detector": ("RocCurve", "build_detector", "run_detection_mc",
                 "tk_energy_derivatives", "tk_energy_threepoint"),
    "tracker": ("Track2D", "orbit_check", "orbit_simulation", "run_track",
                "run_tracking_mc", "tracker_design", "tracker_spec"),
}
_LAZY_HOME = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY_HOME[name]}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_HOME))


__all__ = [
    "DesignSpec", "ConstraintSystem", "FilterbankDesign",
    "StateSpaceRealization", "OrbitError", "DiscreteProcess", "InputSpec",
    "ProcessParams", "RocCurve", "Track2D", "NumericalError",
    "butterworth_s_poles", "causal_z_poles", "full_z_poles",
    "alpha_table", "assemble_system", "basis_derivative_column",
    "dc_targets", "design_filterbank", "gram_matrix", "noncausal_design",
    "optimal_group_delay", "solve_coefficients", "transfer_coefficients",
    "white_noise_gain", "wng_polynomial",
    "run_filter", "run_lss", "run_noncausal", "to_ccf", "to_dcf", "to_dsf",
    "complex_error", "frequency_response", "ideal_response",
    "measured_group_delay", "orbit_steady_state", "verify_constraints",
    "discretize_process", "generate_waveform", "scenario_params",
    "verify_normalization",
    "build_detector", "run_detection_mc", "tk_energy_derivatives",
    "tk_energy_threepoint",
    "orbit_check", "orbit_simulation", "run_track", "run_tracking_mc",
    "tracker_design", "tracker_spec",
]
