"""Maximally-flat IIR smoother/differentiator filterbank toolkit.

Design causal or two-sided recursive filterbanks with Butterworth poles,
exact passband derivative constraints, optional narrowband nulls, and
white-noise-gain-optimal group delay; realize them in canonical state-space
forms; and evaluate them in Teager-Kaiser pulse-detection and 2-D tracking
simulation studies.

Importing maxflat never loads ``scipy.signal`` (see ``realize``).
"""

from .butter import butterworth_s_poles, causal_z_poles, full_z_poles
from .design import (DesignSpec, ConstraintBasis, ConstraintSystem,
                     FilterbankDesign, NumericalError, alpha_table,
                     assemble_system, basis_derivative_column,
                     constraint_basis, dc_targets, design_filterbank,
                     gram_matrix, noncausal_design, solve_coefficients,
                     transfer_coefficients, white_noise_gain, wng_polynomial)
from .analyze import (OrbitError, frequency_response, ideal_response,
                      measured_group_delay, orbit_steady_state,
                      verify_constraints)
from .realize import (StateSpaceRealization, run_filter, run_lss,
                      run_noncausal, to_ccf, to_dcf, to_dsf)
from .procsim import (DiscreteProcess, InputSpec, ProcessParams,
                      discretize_process, generate_waveform, scenario_params,
                      verify_normalization)
from .detector import (RocCurve, build_detector, run_detection_mc,
                       tk_energy_derivatives)
from .tracker import (orbit_check, orbit_simulation, run_tracking_mc,
                      tracker_design, tracker_spec)

__version__ = "1.0.0"

__all__ = [
    "DesignSpec", "ConstraintBasis", "ConstraintSystem", "FilterbankDesign",
    "StateSpaceRealization", "OrbitError", "DiscreteProcess", "InputSpec",
    "ProcessParams", "RocCurve", "NumericalError",
    "butterworth_s_poles", "causal_z_poles", "full_z_poles",
    "alpha_table", "assemble_system", "basis_derivative_column",
    "constraint_basis", "dc_targets", "design_filterbank", "gram_matrix",
    "noncausal_design", "solve_coefficients", "transfer_coefficients",
    "white_noise_gain", "wng_polynomial",
    "run_filter", "run_lss", "run_noncausal", "to_ccf", "to_dcf", "to_dsf",
    "frequency_response", "ideal_response", "measured_group_delay",
    "orbit_steady_state", "verify_constraints",
    "discretize_process", "generate_waveform", "scenario_params",
    "verify_normalization",
    "build_detector", "run_detection_mc", "tk_energy_derivatives",
    "orbit_check", "orbit_simulation", "run_tracking_mc",
    "tracker_design", "tracker_spec",
]
