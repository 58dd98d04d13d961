"""Command-line front end.

Subcommands:

- ``design``: solve a filterbank design and write its coefficients as JSON.
- ``response``: evaluate a designed bank on a frequency grid, write CSV.
- ``detect-sim``: run the Monte-Carlo detection study (ROC CSV + summary).
- ``track-sim``: run a tracking scenario (track CSV + orbit-check CSV).

Exit codes: 0 on success, 2 on validation errors (bad flags, bad config,
violated design invariants), 3 on numerical failure (singular or
degenerate systems).

Each command imports the modules it runs when it runs: ``design`` needs
only ``butter`` and ``design``, ``response`` adds ``analyze``, and only
``detect-sim`` and ``track-sim`` load the simulation modules and, through
``realize``, SciPy.

JSON floats are written as Python's shortest repr that round-trips, CSV
floats with '%.17g'; both read back to the same 64-bit float.  CSV output
uses '.' decimals, comma delimiters, and a single header row; it is written
in binary mode, so rows end in a bare line feed on every platform.  The CSV
writer formats CSV_CHUNK_ROWS rows per NumPy pass, with temporaries of
about 190 bytes per number (tracemalloc; 1.3 MB for 1024 rows of seven
columns).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import warnings
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .design import (DETECTOR_TAGS, TRACKER_CONFIGS, DesignSpec,
                     FilterbankDesign, NumericalError, check_monic,
                     design_filterbank, noncausal_design,
                     unstable_reflection)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# --------------------------------------------------------------------------
# JSON serialization


def _numpy_to_python(obj: Any) -> Any:
    """``json`` hook: NumPy arrays and scalars become Python values.

    ``np.float64`` subclasses ``float`` and never reaches the hook.
    """
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, default=_numpy_to_python) + "\n"


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


#: The config keys of the spec fields that have no default.
_REQUIRED_SPEC_KEYS = tuple(
    key for key, name in _SPEC_KEYS.items()
    if name in {f.name for f in dataclasses.fields(DesignSpec)
                if f.default is dataclasses.MISSING})


def _check_object(value: Any, required: Sequence[str], what: str) -> None:
    """A JSON document read from a file must be an object holding every
    key of required; otherwise ValueError names what is wrong."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{json.dumps(value)[:40]}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ValueError(f"{what} lacks required keys: "
                         + ", ".join(missing))


def spec_to_config(spec: DesignSpec) -> Dict[str, Any]:
    return {key: getattr(spec, field) for key, field in _SPEC_KEYS.items()}


def spec_from_config(cfg: Dict[str, Any]) -> DesignSpec:
    _check_object(cfg, _REQUIRED_SPEC_KEYS, "design config")
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


#: The keys of a causal design file that ``bank_from_payload`` reads.
_BANK_KEYS = ("q_smp", "poles_re_im", "c_re_im", "a", "b", "sigma",
              "ts_sec")


def _bank_floats(payload: Dict[str, Any], key: str, shape: Sequence[int],
                 what: str, positive: bool = False) -> np.ndarray:
    """payload[key] as a float array of the given shape (-1: any length),
    every entry finite (and positive if asked); otherwise ValueError."""
    try:
        value = np.array(payload[key], dtype=float)
    except (TypeError, ValueError):  # not numbers, or ragged lists
        value = np.empty(0)
    if (value.ndim != len(shape) or value.size == 0
            or any(m not in (n, -1) for n, m in zip(value.shape, shape))
            or not np.all(np.isfinite(value))
            or (positive and not np.all(value > 0))):
        raise ValueError(f"design file: {key} must be {what}, got "
                         f"{json.dumps(payload[key])[:40]}")
    return value


def bank_from_payload(payload: Dict[str, Any]) -> FilterbankDesign:
    _check_object(payload, _BANK_KEYS, "design file")
    poles_re_im = _bank_floats(payload, "poles_re_im", (-1, 2),
                               "K >= 1 finite [re, im] pairs")
    K = len(poles_re_im)
    c_re_im = _bank_floats(payload, "c_re_im", (-1, K, 2),
                           f"K_t >= 1 columns of {K} finite [re, im] pairs")
    k_t = len(c_re_im)
    a = _bank_floats(payload, "a", (K + 1,), f"{K + 1} finite numbers")
    check_monic(a, f"design file: a must be monic (a[0] = 1), got "
                   f"{json.dumps(payload['a'])[:40]}")
    k = unstable_reflection(a)
    if k is not None:
        raise ValueError(f"design file: a must have every root inside the "
                         f"unit circle, got a step-down reflection "
                         f"coefficient of {k:.6g}")
    b = _bank_floats(payload, "b", (k_t, K + 1),
                     f"{k_t} rows of {K + 1} finite numbers")
    sigma = _bank_floats(payload, "sigma", (k_t, k_t),
                         f"a finite {k_t} x {k_t} matrix")
    q = _bank_floats(payload, "q_smp", (), "a finite number")
    t_s = _bank_floats(payload, "ts_sec", (), "a finite positive number",
                       positive=True)
    # A C-ordered float64 [re, im] pair is one complex128 in memory.
    return FilterbankDesign(
        poles=poles_re_im.view(complex)[:, 0],
        c=c_re_im.view(complex)[:, :, 0].T, q=float(q), sigma=sigma, a=a,
        b=b, t_s=float(t_s))


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
    q_smp = payload.get("forward", payload)["q_smp"]
    print(f"wrote {args.output} (q = {q_smp})")
    return EXIT_OK


def cmd_response(args: argparse.Namespace) -> int:
    from . import analyze

    if args.grid < 2:
        raise ValueError(f"grid must be at least 2, got {args.grid}: the "
                         f"group delay needs two frequencies")
    with open(args.design) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "forward" in payload:
        raise ValueError("response command expects a causal design file")
    design = bank_from_payload(payload)
    omegas = np.linspace(0.0, np.pi, args.grid)
    header = ["f_cyc_per_smp"]
    cols = [omegas / (2.0 * np.pi)]
    # bank_from_payload admits only a stable a, but a T_s or b out of
    # range overflows; the check below says so.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for kt in range(design.n_outputs):
            h = analyze.frequency_response(design.b[kt], design.a, omegas)
            ideal = analyze.ideal_response(kt, design.q, design.t_s, omegas)
            phase = np.unwrap(np.angle(h))
            gd = -np.gradient(phase, omegas)
            header += [f"re_{kt}", f"im_{kt}", f"magnitude_{kt}",
                       f"phase_unwrapped_{kt}",
                       f"complex_error_vs_ideal_{kt}", f"group_delay_{kt}"]
            cols += [h.real, h.imag, np.abs(h), phase, np.abs(h - ideal),
                     gd]
    table = np.column_stack(cols)
    if not np.all(np.isfinite(table)):
        raise ValueError("design file: the response is not finite on the "
                         "grid: ts_sec or b is so far out of range that it "
                         "overflows")
    _write_csv(args.output, header, table)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_detect_sim(args: argparse.Namespace) -> int:
    from . import detector

    if args.trials < 1:
        raise ValueError("trials must be >= 1")
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
    from . import tracker

    design = tracker.tracker_design(args.tracker)
    run = tracker.run_tracking_mc(args.scenario, design, args.seed,
                                  n_samples=args.samples)
    n = np.arange(args.samples)
    _write_csv(args.track_csv,
               ["n", "truth_x", "truth_y", "meas_x", "meas_y",
                "est_x", "est_y"],
               np.column_stack([n, run.truth_x, run.truth_y, run.meas_x,
                                run.meas_y, run.est_x, run.est_y]))
    rows = tracker.orbit_check(design)
    orbit_cols = ["f_orb", "eps_r_predicted", "eps_r_measured",
                  "eps_theta_predicted", "eps_theta_measured"]
    _write_csv(args.orbit_csv, orbit_cols,
               np.array([[row[c] for c in orbit_cols] for row in rows]))
    print(f"wrote {args.track_csv} and {args.orbit_csv} "
          f"(rms error = {run.rms_error:.4f})")
    return EXIT_OK


#: Rows formatted per NumPy pass: enough that the per-call overhead
#: vanishes, few enough that a chunk's temporaries do not raise the peak
#: memory of a large write, as formatting the whole file at once would.
#: They peak at about 190 bytes per number (tracemalloc): 1.3 MB for seven
#: columns, 3.6 MB for the 19 of a three-output response.
CSV_CHUNK_ROWS = 1024

# '%.17g' writes a float's 17 correctly rounded significant digits, the
# first nonzero, without trailing zeros: in fixed notation when the decimal
# exponent X of the rounded value lies in [-4, 16], in exponent form
# otherwise.  The writer finds the digits exactly in float64 arithmetic and
# lays out each fixed-notation value in a 40-byte record of slots:
#
#   byte 0       sign
#   bytes 1-5    "0.000", the prefix of X < 0
#   byte 6 + 2j  digit j (j = 0..16)
#   byte 7 + 2j  "." after digit j (j = 0..15)
#   byte 39      "," or "\n"
#
# Slots a value does not use hold NUL, and deleting every NUL leaves its
# text.  A value in exponent form, inf or nan writes "%.17g" in its record
# instead, and the chunk's text is then '%'-formatted with those values.
# The tables are built on the first CSV write, not when the module loads.

#: 10**(16 - e) for the decades e = 16..-4 (each exact in float64) and its
#: Veltkamp split.
_POW10 = np.array([float(10 ** k) for k in range(21)])
_SPLIT = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


@functools.cache
def _digit_tables():
    """The record bytes of each group of four digits 0000..9999 (digits
    4j-3..4j, j = 1..4) and then of each first digit d (at 10000 + d), each
    8 bytes as one uint64; and the trailing zeros of 0000..9999."""
    d = 48 + np.arange(10, dtype=np.uint8)
    slots = np.zeros((10010, 8), np.uint8)
    quads = slots[:10000].reshape(10, 10, 10, 10, 8)
    quads[..., 0] = d[:, None, None, None]
    quads[..., 2] = d[:, None, None]
    quads[..., 4] = d[:, None]
    quads[..., 6] = d
    slots[10000:, 6] = d
    zeros = np.zeros((10, 10, 10, 10), np.int8)
    zeros[..., 0] += 1
    zeros[..., 0, 0] += 1
    zeros[:, 0, 0, 0] += 1
    zeros[0, 0, 0, 0] += 1
    return slots.view(np.uint64).ravel(), zeros.ravel()


#: The key of a value that goes through '%.17g' (plus one in the last
#: column): the first past the 21 * 17 * 2 * 2 fixed-notation keys.
_CSV_SLOW = 21 * 17 * 2 * 2


@functools.cache
def _layout_tables():
    """Per key (X, digit count k, sign, last column): the digit slots the
    record keeps and the bytes it holds whatever the digits, each as five
    uint64; then those of the two keys from _CSV_SLOW on."""
    # Axes: X + 4, k - 1, sign, last column, byte.
    fill = np.zeros((21, 17, 2, 2, 40), np.uint8)
    fill[:, :, 1, :, 0] = ord("-")
    for x in range(-4, 0):
        fill[x + 4, ..., 1:2 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
    for x in range(16):
        fill[x + 4, x + 1:, ..., 7 + 2 * x] = ord(".")
    fill[..., 39] = np.frombuffer(b",\n", np.uint8)
    x, k = np.ogrid[-4:17, 1:18]
    written = np.where(x < 0, k, np.maximum(k, x + 1))  # digits written
    keep = np.zeros_like(fill)
    keep[..., 6::2] = 255 * (np.arange(17) < written[..., None, None, None])
    slow = np.zeros((2, 40), np.uint8)
    slow[:, :5] = np.frombuffer(b"%.17g", np.uint8)
    slow[:, 39] = np.frombuffer(b",\n", np.uint8)
    keep = np.vstack([keep.reshape(_CSV_SLOW, 40), np.zeros_like(slow)])
    fill = np.vstack([fill.reshape(_CSV_SLOW, 40), slow])
    return keep.view(np.uint64), fill.view(np.uint64)


def _scaled(a: np.ndarray, e: np.ndarray):
    """a * 10**(16 - e) exactly, as hi + lo (Dekker's product)."""
    p = 16 - e
    ph, pl = _POW10_HI.take(p), _POW10_LO.take(p)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    hi = a * _POW10.take(p)
    lo = al * pl - (((hi - ah * ph) - al * ph) - ah * pl)
    return hi, lo


def _divmod(n: np.ndarray, unit: int):
    """n // unit and n % unit; NumPy divides by a constant much faster
    than it takes the remainder."""
    quotient = n // unit
    return quotient, n - quotient * unit


def _decimal_digits(v: np.ndarray):
    """The 17 correctly rounded significant digits of each |v| as one
    integer, its decimal exponent X, and whether '%.17g' writes it in
    fixed notation (X in [-4, 16], or v = 0; X = 0 and digits 0 for 0)."""
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)  # exactly the decades -4..16
    a[~fixed] = 1.0
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    hi, lo = _scaled(a, e)
    # floor(log10(a)) can be one off next to a power of ten; then
    # a * 10**(16 - e) lies outside [1e16, 1e17) and e moves by one.
    step = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.int64)
    step -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    off = np.flatnonzero(step)
    if off.size:
        e[off] += step[off]
        hi[off], lo[off] = _scaled(a[off], e[off])
    # hi is an integer in [1e16, 1e17] and even, being at least 2**53, so
    # hi + rint(lo) is the 17-digit integer rounded half to even, as
    # '%.17g' rounds.  It never carries to 1e17: no double in the decades
    # -4..16 lies within half a unit of the 17th digit below a power of ten.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    zero = v == 0
    digits[zero] = 0
    e[zero] = 0
    return digits, e, fixed | zero


def _digit_groups(digits: np.ndarray) -> np.ndarray:
    """Rows of indices into the digit slots of _digit_tables: 10000 + the
    first digit, then the next four groups of four digits."""
    upper, lower = _divmod(digits, 10 ** 8)
    first, middle = _divmod(upper, 10 ** 8)
    return np.stack([first + 10000, *_divmod(middle, 10 ** 4),
                     *_divmod(lower, 10 ** 4)])


def _format_csv_chunk(x: np.ndarray) -> bytes:
    """The rows of a 2-D float64 array, each number as '%.17g' % v."""
    if not x.shape[1]:
        return b"\n" * len(x)
    digit_slots, trailing_zeros = _digit_tables()
    keep, fill = _layout_tables()
    v = x.ravel()
    digits, e, fixed = _decimal_digits(v)
    groups = _digit_groups(digits)
    quad_zeros = trailing_zeros.take(groups[1:])
    trailing = quad_zeros[0]
    for zeros in quad_zeros[1:]:
        trailing = np.where(zeros == 4, trailing + 4, zeros)
    # The key (X + 4, k - 1, sign, last column) of 17 - trailing digits.
    key = (((e + 4) * 17 + 16 - trailing) * 2 + np.signbit(v)) * 2
    key[~fixed] = _CSV_SLOW
    key.reshape(x.shape)[:, -1] += 1  # the last column ends the row
    record = digit_slots.take(groups.T)
    record &= keep.take(key, axis=0)
    record |= fill.take(key, axis=0)
    text = record.tobytes().translate(None, b"\0")
    if fixed.all():
        return text
    return text % tuple(v[~fixed].tolist())


def _write_csv(path: str, header: Sequence[str], data: np.ndarray) -> None:
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, data.shape[0], CSV_CHUNK_ROWS):
            fh.write(_format_csv_chunk(data[start:start + CSV_CHUNK_ROWS]))


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
    p.add_argument("--grid", type=int, default=2048,
                   help="grid size, at least 2")
    p.add_argument("-o", "--output", default="response.csv")
    p.set_defaults(func=cmd_response)

    p = sub.add_parser("detect-sim", help="Monte-Carlo detection study")
    p.add_argument("--detector", required=True,
                   help="one of " + ", ".join(DETECTOR_TAGS))
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stochastic-signal", action="store_true",
                   help="alternate scenario: stochastic signal, equal powers")
    p.add_argument("--roc", default="roc.csv")
    p.add_argument("--summary", default="summary.json")
    p.set_defaults(func=cmd_detect_sim)

    p = sub.add_parser("track-sim", help="tracking scenario")
    p.add_argument("--tracker", required=True,
                   help="one of " + ", ".join(TRACKER_CONFIGS))
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
    # One stderr line per warning; callers that record them get them all.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, category, *_: \
        f"warning: {category.__name__}: {message}\n"
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
