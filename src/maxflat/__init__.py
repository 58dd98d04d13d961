"""Maximally-flat IIR smoother/differentiator filterbank toolkit.

Design causal or two-sided recursive filterbanks with Butterworth poles,
exact passband derivative constraints, optional narrowband nulls, and
white-noise-gain-optimal group delay; realize them in canonical state-space
forms; and evaluate them in Teager-Kaiser pulse-detection and 2-D tracking
simulation studies.

``import maxflat`` loads no submodule and not NumPy.  Each name of
``__all__`` and each submodule is imported on first access (PEP 562), so a
program loads only the modules it uses: designs need ``butter`` and
``design``, and only ``realize`` (and the modules that filter through it:
``procsim``, ``detector``, ``tracker``) needs SciPy, for the compiled kernel
of ``lfilter``.  No module loads ``scipy.signal`` (see ``realize``).  The
names are looked up anew on every access, never stored here, so
``maxflat.run_filter`` is always ``maxflat.realize.run_filter``.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Each public name and the submodule that defines it, in __all__'s order.
_HOMES = {
    **dict.fromkeys(("DesignSpec", "ConstraintBasis", "ConstraintSystem",
                     "FilterbankDesign"), "design"),
    "StateSpaceRealization": "realize", "OrbitError": "analyze",
    **dict.fromkeys(("DiscreteProcess", "InputSpec", "ProcessParams"),
                    "procsim"),
    "RocCurve": "detector", "NumericalError": "design",
    **dict.fromkeys(("butterworth_s_poles", "causal_z_poles",
                     "full_z_poles"), "butter"),
    **dict.fromkeys(("alpha_table", "assemble_system",
                     "basis_derivative_column", "constraint_basis",
                     "dc_targets", "design_filterbank", "gram_matrix",
                     "noncausal_design", "solve_coefficients",
                     "transfer_coefficients", "white_noise_gain",
                     "wng_polynomial"), "design"),
    **dict.fromkeys(("run_filter", "run_lss", "run_noncausal", "to_ccf",
                     "to_dcf", "to_dsf"), "realize"),
    **dict.fromkeys(("frequency_response", "ideal_response",
                     "measured_group_delay", "orbit_steady_state",
                     "verify_constraints"), "analyze"),
    **dict.fromkeys(("discretize_process", "generate_waveform",
                     "scenario_params", "verify_normalization"), "procsim"),
    **dict.fromkeys(("build_detector", "run_detection_mc",
                     "tk_energy_derivatives"), "detector"),
    **dict.fromkeys(("orbit_check", "orbit_simulation", "run_tracking_mc",
                     "tracker_design", "tracker_spec"), "tracker"),
}

__all__ = list(_HOMES)

#: The submodules that ``dir(maxflat)`` lists and attribute access loads.
_SUBMODULES = ("butter", "design", "analyze", "realize", "procsim",
               "detector", "tracker")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    """The names of the package, without the machinery that loads them."""
    own = globals().keys() - {"import_module", "_HOMES", "_SUBMODULES",
                              "__getattr__", "__dir__"}
    return sorted(own | set(__all__) | set(_SUBMODULES))
