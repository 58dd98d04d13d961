"""Command-line front end.

Subcommands:

- ``design``: solve a filterbank design and write its coefficients as JSON.
- ``response``: evaluate a designed bank on a frequency grid, write CSV.
- ``detect-sim``: run the Monte-Carlo detection study (ROC CSV + summary).
- ``track-sim``: run a tracking scenario (track CSV + orbit-check CSV).

Exit codes: 0 on success, 2 on validation errors (bad flags, bad config,
violated design invariants), 3 on numerical failure (singular or
degenerate systems).

All numbers are serialized as decimal with 17 significant digits, which
round-trips 64-bit floats exactly; CSV output uses '.' decimals, comma
delimiters, and a single header row.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from . import analyze
from .design import (DesignSpec, FilterbankDesign, NumericalError,
                     design_filterbank, noncausal_design)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# --------------------------------------------------------------------------
# 17-significant-digit JSON serialization


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _to_jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return _FloatLiteral(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


class _FloatLiteral(float):
    """Float whose JSON rendering is pinned to 17 significant digits."""

    def __repr__(self) -> str:  # json uses repr(float) for rendering
        return _format_float(self)


def dumps_json(obj: Any) -> str:
    return json.dumps(_to_jsonable(obj), indent=2) + "\n"


# --------------------------------------------------------------------------
# Design (de)serialization


_SPEC_KEYS = {
    "fs_hz": "f_s",
    "f_wb_cyc_per_smp": "f_wb",
    "f_nb_cyc_per_smp": "f_nb",
    "k_w_dc": "k_w_dc",
    "k_w_nb": "k_w_nb",
    "k_w_pi": "k_w_pi",
    "k_t": "k_t",
    "group_delay_smp": "group_delay",
    "causal": "causal",
}


def spec_to_config(spec: DesignSpec) -> Dict[str, Any]:
    return {
        "fs_hz": spec.f_s,
        "f_wb_cyc_per_smp": spec.f_wb,
        "f_nb_cyc_per_smp": spec.f_nb,
        "k_w_dc": spec.k_w_dc,
        "k_w_nb": spec.k_w_nb,
        "k_w_pi": spec.k_w_pi,
        "k_t": spec.k_t,
        "group_delay_smp": spec.group_delay,
        "causal": spec.causal,
    }


def spec_from_config(cfg: Dict[str, Any]) -> DesignSpec:
    unknown = sorted(set(cfg) - set(_SPEC_KEYS))
    if unknown:
        raise ValueError("unknown config keys: " + ", ".join(unknown))
    kwargs = {_SPEC_KEYS[k]: v for k, v in cfg.items()}
    return DesignSpec(**kwargs)


def _complex_pairs(values: np.ndarray) -> List[List[float]]:
    return [[float(v.real), float(v.imag)] for v in np.ravel(values)]


def _bank_payload(design: FilterbankDesign) -> Dict[str, Any]:
    return {
        "q_smp": design.q,
        "poles_re_im": _complex_pairs(design.poles),
        "c_re_im": [_complex_pairs(design.c[:, kt])
                    for kt in range(design.n_outputs)],
        "a": list(design.a),
        "b": [list(b) for b in design.b],
        "sigma": [list(row) for row in design.sigma],
        "ts_sec": design.t_s,
    }


def design_to_payload(spec: DesignSpec) -> Dict[str, Any]:
    if spec.causal:
        d = design_filterbank(spec)
        return {"spec": spec_to_config(spec), **_bank_payload(d),
                "condition": d.condition}
    fwd, bwd = noncausal_design(spec)
    return {"spec": spec_to_config(spec),
            "forward": _bank_payload(fwd),
            "backward": _bank_payload(bwd),
            "condition": fwd.condition}


def bank_from_payload(payload: Dict[str, Any]) -> FilterbankDesign:
    poles = np.array([complex(re, im) for re, im in payload["poles_re_im"]])
    cols = [np.array([complex(re, im) for re, im in col])
            for col in payload["c_re_im"]]
    c = np.column_stack(cols)
    sigma = np.array(payload["sigma"], dtype=float)
    return FilterbankDesign(
        poles=poles, c=c, q=float(payload["q_smp"]), sigma=sigma,
        a=np.array(payload["a"], dtype=float),
        b=tuple(np.array(b, dtype=float) for b in payload["b"]),
        t_s=float(payload["ts_sec"]))


# --------------------------------------------------------------------------
# Commands


def cmd_design(args: argparse.Namespace) -> int:
    if args.config:
        with open(args.config) as fh:
            spec = spec_from_config(json.load(fh))
    else:
        q: Any = args.q
        if q != "optimal":
            q = float(q)
        spec = DesignSpec(f_s=args.fs, f_wb=args.fwb, f_nb=args.fnb,
                          k_w_dc=args.kdc, k_w_nb=args.knb,
                          k_w_pi=args.kpi, k_t=args.kt, group_delay=q,
                          causal=not args.noncausal)
    payload = design_to_payload(spec)
    with open(args.output, "w") as fh:
        fh.write(dumps_json(payload))
    print(f"wrote {args.output} (q = {payload.get('q_smp', 0.0)})")
    return EXIT_OK


def cmd_response(args: argparse.Namespace) -> int:
    with open(args.design) as fh:
        payload = json.load(fh)
    if "forward" in payload:
        raise ValueError("response command expects a causal design file")
    design = bank_from_payload(payload)
    n = args.grid
    omegas = np.linspace(0.0, np.pi, n)
    header = ["f_cyc_per_smp"]
    cols = [omegas / (2.0 * np.pi)]
    for kt in range(design.n_outputs):
        h = analyze.frequency_response(design.b[kt], design.a, omegas)
        ideal = analyze.ideal_response(kt, design.q, design.t_s, omegas)
        phase = np.unwrap(np.angle(h))
        gd = analyze.measured_group_delay(design.b[kt], design.a, omegas)
        header += [f"re_{kt}", f"im_{kt}", f"magnitude_{kt}",
                   f"phase_unwrapped_{kt}",
                   f"complex_error_vs_ideal_{kt}", f"group_delay_{kt}"]
        cols += [h.real, h.imag, np.abs(h), phase,
                 analyze.complex_error(h, ideal), gd]
    _write_csv(args.output, header, np.column_stack(cols))
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_detect_sim(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    from . import detector  # loads scipy.signal; only this command needs it
    pipeline = detector.build_detector(args.detector)
    roc = detector.run_detection_mc(
        pipeline, args.trials, args.seed,
        deterministic_signal=not args.stochastic_signal)
    _write_csv(args.roc, ["p_fa", "p_d"],
               np.column_stack([roc.p_fa, roc.p_d]))
    row = detector.detector_metrics(args.detector)
    row.update({"auc": roc.auc, "trials": args.trials, "seed": args.seed})
    with open(args.summary, "w") as fh:
        fh.write(dumps_json(row))
    print(f"wrote {args.roc} and {args.summary} (auc = {roc.auc:.4f})")
    return EXIT_OK


def cmd_track_sim(args: argparse.Namespace) -> int:
    from . import tracker  # loads scipy.signal; only this command needs it
    design = tracker.tracker_design(args.tracker)
    run = tracker.run_tracking_mc(args.scenario, design, args.seed,
                                  n_samples=args.samples)
    n = np.arange(args.samples)
    _write_csv(args.track_csv,
               ["n", "truth_x", "truth_y", "meas_x", "meas_y",
                "est_x", "est_y"],
               np.column_stack([n, run.truth_x, run.truth_y, run.meas_x,
                                run.meas_y, run.track.est_x,
                                run.track.est_y]))
    rows = tracker.orbit_check(design)
    orbit_cols = ["f_orb", "eps_r_predicted", "eps_r_measured",
                  "eps_theta_predicted", "eps_theta_measured"]
    _write_csv(args.orbit_csv, orbit_cols,
               np.array([[row[c] for c in orbit_cols] for row in rows]))
    print(f"wrote {args.track_csv} and {args.orbit_csv} "
          f"(rms error = {run.rms_error:.4f})")
    return EXIT_OK


#: Rows formatted per '%' call: enough that the per-call overhead vanishes,
#: few enough that a chunk's floats and text (about 0.5 MB for seven
#: columns) do not raise the peak memory of a large write, as formatting the
#: whole file at once would.
CSV_CHUNK_ROWS = 1024


def _write_csv(path: str, header: Sequence[str], data: np.ndarray) -> None:
    data = np.atleast_2d(data)
    # '%.17g' % x is format(x, '.17g'), so each chunk is one '%' call.
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, data.shape[0], CSV_CHUNK_ROWS):
            chunk = data[start:start + CSV_CHUNK_ROWS]
            fh.write((row * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


# --------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxflat",
        description="Maximally-flat IIR smoother/differentiator toolkit.",
        epilog="Exit codes: 0 success, 2 validation error, "
               "3 numerical failure (singular system).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="solve a filterbank design")
    p.add_argument("--config", help="JSON design spec (unit-suffixed keys)")
    p.add_argument("--fs", type=float, default=1000.0, help="sampling rate, Hz")
    p.add_argument("--fwb", type=float, default=0.05,
                   help="passband edge, cycles/sample")
    p.add_argument("--fnb", type=float, default=None,
                   help="narrowband null frequency, cycles/sample")
    p.add_argument("--kdc", type=int, default=3, help="dc constraint count")
    p.add_argument("--knb", type=int, default=0,
                   help="narrowband constraint count (per side)")
    p.add_argument("--kpi", type=int, default=0, help="pi constraint count")
    p.add_argument("--kt", type=int, default=3, help="output count")
    p.add_argument("--q", default="optimal",
                   help='group delay in samples, or "optimal"')
    p.add_argument("--noncausal", action="store_true",
                   help="two-sided design split into forward/backward parts")
    p.add_argument("-o", "--output", default="design.json")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("response", help="frequency response CSV")
    p.add_argument("--design", required=True, help="design JSON file")
    p.add_argument("--grid", type=int, default=2048, help="grid size")
    p.add_argument("-o", "--output", default="response.csv")
    p.set_defaults(func=cmd_response)

    p = sub.add_parser("detect-sim", help="Monte-Carlo detection study")
    p.add_argument("--detector", required=True,
                   help="detector tag, e.g. IIR_BW1 (an unknown tag "
                        "lists them all)")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stochastic-signal", action="store_true",
                   help="alternate scenario: stochastic signal, equal powers")
    p.add_argument("--roc", default="roc.csv")
    p.add_argument("--summary", default="summary.json")
    p.set_defaults(func=cmd_detect_sim)

    p = sub.add_parser("track-sim", help="tracking scenario")
    p.add_argument("--tracker", required=True,
                   help="tracker tag, e.g. B (an unknown tag lists them "
                        "all)")
    p.add_argument("--scenario", default="LoG", choices=["LoG", "HiG"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--track-csv", default="track.csv")
    p.add_argument("--orbit-csv", default="orbit.csv")
    p.set_defaults(func=cmd_track_sim)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
