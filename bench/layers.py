"""Per-layer metrics of a traced run, named ``<module>.<function>.<quantity>``.

The layers are the package's modules.  Each metric comes from the spans the
tracer recorded around calls into that module (see ``spans.py``), except
``import.*`` (from ``python -X importtime``), ``cli.*.wall_s`` (wall time of
untraced subcommand processes), ``cli.bytes_written`` and
``trace.overhead_share``, which the run measures directly.
"""

from __future__ import annotations

from spans import SpanTable

DESIGN_SELF = ("design_filterbank", "noncausal_design", "assemble_system",
               "basis_derivative_column", "wng_polynomial",
               "optimal_group_delay", "gram_matrix", "white_noise_gain",
               "transfer_coefficients")
CLI_COMMANDS = {"design": "cmd_design", "response": "cmd_response",
                "detect-sim": "cmd_detect_sim", "track-sim": "cmd_track_sim"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: SpanTable, extra: dict) -> dict:
    """Every per-layer metric as name -> (value, unit).

    ``extra`` holds what the spans cannot give: ``import_maxflat_s``,
    ``import_scipy_signal_s``, ``cli_wall_s`` (subcommand -> seconds),
    ``cli_bytes_written``, ``ill_conditioned``, ``design_defects`` (traced
    designs returned that fail ``verify_constraints``) and
    ``overhead_share``.
    """
    m = {}
    m["import.maxflat_s"] = (extra["import_maxflat_s"], "s")
    m["import.scipy_signal_s"] = (extra["import_scipy_signal_s"], "s")

    butter = [n for n in set(t.names) if n.startswith("butter.")]
    m["butter.poles.calls"] = (t.calls("butter.butterworth_s_poles"), "count")
    m["butter.poles.self_s"] = (sum(t.self_s(n) for n in butter), "s")

    for fn in DESIGN_SELF:
        m[f"design.{fn}.self_s"] = (t.self_s(f"design.{fn}"), "s")
    for fn in ("assemble_system", "basis_derivative_column",
               "transfer_coefficients", "alpha_table"):
        m[f"design.{fn}.calls"] = (t.calls(f"design.{fn}"), "count")
    designs = t.calls("design.design_filterbank") \
        + t.calls("design.noncausal_design")
    m["design.assemble_system.calls_per_design"] = (
        _ratio(t.calls("design.assemble_system"), designs), "calls/design")
    m["design.alpha_table.unique_ratio"] = (
        t.unique_ratio("design.alpha_table"), "ratio")
    # Designs that raised, plus designs returned that fail their own
    # constraint check.
    m["design.fail_ratio"] = (
        _ratio(t.raised_count("design.design_filterbank")
               + t.raised_count("design.noncausal_design")
               + extra["design_defects"], designs), "ratio")
    m["design.assemble_system.ill_conditioned"] = (
        extra["ill_conditioned"], "count")

    # Work inside the Monte-Carlo entry point, however it runs its trials:
    # filter calls per trial and the filter kernel's share of its time.
    mc = "detector.run_detection_mc"
    in_mc = [i for i, a in enumerate(t.nearest(mc)) if a >= 0]
    trials = t.sample_count(mc)
    names = t.names
    rf_in_mc = sum(1 for i in in_mc if names[i] == "realize.run_filter")
    kernel_in_mc = sum(t.dur[i] for i in in_mc
                       if names[i] == "kernel.lfilter") / 1e9

    rf = "realize.run_filter"
    m[f"{rf}.calls"] = (t.calls(rf), "count")
    m[f"{rf}.self_s"] = (t.self_s(rf), "s")
    m[f"{rf}.samples"] = (t.sample_count(rf), "samples")
    m[f"{rf}.ns_per_sample"] = (
        _ratio(t.total_s(rf) * 1e9, t.sample_count(rf)), "ns/sample")
    m[f"{rf}.calls_per_trial"] = (_ratio(rf_in_mc, trials), "calls/trial")
    m["realize.run_noncausal.calls"] = (t.calls("realize.run_noncausal"),
                                        "count")
    m["realize.run_noncausal.self_s"] = (t.self_s("realize.run_noncausal"),
                                         "s")
    m["kernel.lfilter.calls"] = (t.calls("kernel.lfilter"), "count")
    m["kernel.lfilter.self_s"] = (t.self_s("kernel.lfilter"), "s")

    gw, dp = "procsim.generate_waveform", "procsim.discretize_process"
    m[f"{gw}.calls"] = (t.calls(gw), "count")
    m[f"{gw}.self_s"] = (t.self_s(gw), "s")
    m[f"{gw}.samples"] = (t.sample_count(gw), "samples")
    m[f"{dp}.calls"] = (t.calls(dp), "count")
    m[f"{dp}.self_s"] = (t.self_s(dp), "s")
    m[f"{dp}.unique_ratio"] = (t.unique_ratio(dp), "ratio")
    m["procsim.scenario_params.calls"] = (t.calls("procsim.scenario_params"),
                                          "count")

    for fn in ("build_detector", "pipeline", "run_detection_mc",
               "trial_statistics", "roc_from_statistics", "detector_metrics"):
        m[f"detector.{fn}.self_s"] = (t.self_s(f"detector.{fn}"), "s")
    m["detector.pipeline.calls"] = (t.calls("detector.pipeline"), "count")
    m["detector.kernel_share"] = (
        _ratio(kernel_in_mc, t.total_s(mc)),
        "ratio")

    for fn in ("tracker_design", "run_tracking_mc", "run_track",
               "orbit_check"):
        m[f"tracker.{fn}.self_s"] = (t.self_s(f"tracker.{fn}"), "s")
    orbit = sum(int(t.samples[i]) for i in t.idx("tracker.run_track")
                if t.parent[i] >= 0
                and names[t.parent[i]] == "tracker.orbit_simulation")
    m["tracker.orbit_simulation.samples"] = (orbit, "samples")

    m["analyze.frequency_response.calls"] = (
        t.calls("analyze.frequency_response"), "count")
    for fn in ("frequency_response", "verify_constraints",
               "measured_group_delay", "orbit_steady_state"):
        m[f"analyze.{fn}.self_s"] = (t.self_s(f"analyze.{fn}"), "s")

    # A subcommand's own cost: self time of cli-module code under it, which
    # is serialization and glue.
    command = t.nearest("cli.cmd_")
    cli_self = {}
    for i, c in enumerate(command):
        if c >= 0 and names[i].startswith("cli."):
            cli_self[names[c]] = cli_self.get(names[c], 0.0) + t.self_ns[i]
    for sub, fn in CLI_COMMANDS.items():
        m[f"cli.{sub}.self_s"] = (cli_self.get(f"cli.{fn}", 0.0) / 1e9, "s")
        m[f"cli.{sub}.wall_s"] = (extra["cli_wall_s"].get(sub, 0.0), "s")
    m["cli.bytes_written"] = (extra["cli_bytes_written"], "bytes")

    m["trace.overhead_share"] = (extra["overhead_share"], "ratio")
    return m
