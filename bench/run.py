"""Run one workload of the maxflat benchmark and print its result.

    python3 bench/run.py --workload detect-mc --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run it from the root of a checkout; the package is imported from ``src``.
The last line of standard output is the result, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it records the run: workload, seed, environment, rounds and the
outcome of the output checks.

``--trace 0`` measures the end-to-end metrics in an untraced closed loop of
``--seconds`` seconds.  ``--trace 1`` reports the per-layer metrics from a
fixed number of rounds, each run untraced and then traced, and writes the
spans to ``.bench_out/``.  ``--smoke`` runs every workload at a tiny size in
both modes and checks that every metric in ``BENCHMARK.json`` is emitted
with its unit and that the output checks ran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import calib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPS = 5
#: -X importtime children per traced run; the import metrics are medians.
IMPORT_REPS = 3


def setup_seconds(workload: str) -> tuple:
    """One set-up timed inside a fresh interpreter: raw seconds, and
    seconds at the reference speed from that interpreter's calibration."""
    from workloads import child_env

    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "ready.py"), workload],
        env=child_env(), capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_s"] * calib.NOMINAL_S / out["kernel_s"]


def import_seconds() -> tuple:
    """Cumulative import time of maxflat and of scipy.signal, in seconds,
    from ``python -X importtime``."""
    from workloads import child_env

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import maxflat"], env=child_env(),
                          capture_output=True, text=True, check=True)
    cum = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cum.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return cum.get("maxflat", 0.0), cum.get("scipy.signal", 0.0)


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "maxflat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": nproc, "cpus_used": sorted(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def warning_counts(caught: list) -> dict:
    counts: dict = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    return counts


def report_warnings(workload: str, counts: dict) -> None:
    for name, n in sorted(counts.items()):
        print(f"{workload}: {n} {name} warnings", file=sys.stderr)


def grouped(seconds: list, size: int) -> list:
    return [sum(seconds[i:i + size]) for i in range(0, len(seconds), size)]


def measure(wl, seconds: float) -> tuple:
    """The untraced run: set-up, then a closed loop for ``seconds``."""
    # Set-ups run before and after the loop, so that their median spans
    # the run rather than one moment of the machine.
    reps = 1 if wl.tiny else SETUP_REPS
    setups = [setup_seconds(wl.name) for _ in range(reps - reps // 2)]
    objs = wl.build()
    rounds = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if wl.warm_up:
            rounds.append((0, wl.run_round(0, objs, calib.Discard())))
        # Peak memory after set-up and one round, before the timed loop:
        # a fixed amount of work, so that the harness's own per-operation
        # records, which grow with throughput, never count in it.  For cli
        # it is the largest child process, read after the loop.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        meter = calib.Meter(wl.cal_interval)
        r = 1
        t0 = time.perf_counter()
        while True:
            rounds.append((r, wl.run_round(r, objs, meter)))
            r += 1
            if time.perf_counter() - t0 >= seconds:
                break
        meter.cut()
        wall_s = time.perf_counter() - t0
    setups += [setup_seconds(wl.name) for _ in range(reps // 2)]
    setup_raw, setup = zip(*setups)
    if wl.name == "cli":
        peak_mb = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    rounds = [(r, wl.finish(res)) for r, res in rounds]
    tally = wl.tally(rounds, wl.load_refs())
    # A reported operation is op_group timed pieces; its time per unit is
    # what op_p50_ms reports (per trial in detect-mc, per session in cli).
    units = grouped(meter.op_units, wl.op_group)
    per_unit = [t / u for t, u in
                zip(grouped(meter.ops(), wl.op_group), units)]
    per_unit_raw = [t / u for t, u in
                    zip(grouped(meter.op_raw, wl.op_group), units)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (sum(units) / meter.total(), "1/s"),
        "op_p50_ms": (statistics.median(per_unit) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_share": (tally["ok"] / tally["attempted"], "ratio"),
    }
    info = {"rounds": len(rounds), "ops": sum(units), "wall_s": wall_s,
            "op_p90_ms": percentile_ms(per_unit, 90),
            "op_p99_ms": percentile_ms(per_unit, 99),
            "raw": {"setup_s": statistics.median(setup_raw),
                    "ops_per_s": sum(units) / sum(meter.seg_raw),
                    "op_p50_ms": statistics.median(per_unit_raw) * 1e3},
            "calibrations": len(meter.cal),
            "calibration_median_s": statistics.median(meter.cal),
            "warnings": warning_counts(caught)}
    if wl.name == "cli":
        info["subcommand_s"] = subcommand_seconds(meter.ops())
        info["bytes_identical"] = bytes_identical(wl)
    return metrics, tally, info


def percentile_ms(seconds: list, p: int):
    """The p-th percentile in ms, or None without ten samples beyond it."""
    if len(seconds) * (100 - p) < 1000:
        return None
    return statistics.quantiles(seconds, n=100)[p - 1] * 1e3


def subcommand_seconds(seconds: list) -> dict:
    """Median seconds of each subcommand's processes."""
    from workloads import CLI_SUBCOMMANDS

    n = len(CLI_SUBCOMMANDS)
    return {sub: statistics.median(seconds[i::n])
            for i, sub in enumerate(CLI_SUBCOMMANDS) if seconds[i::n]}


def bytes_identical(wl) -> dict:
    """Per output file: identical bytes in every session, and identical to
    the reference commit's bytes where those are recorded."""
    refs = wl.load_refs().get("sha256", {}).get(str(wl.seed), {})
    out = {}
    for name in sorted(set().union(*wl.hashes)):
        seen = {h.get(name) for h in wl.hashes}
        out[name] = {"across_sessions": len(seen) == 1,
                     "to_reference": (seen == {refs[name]}
                                      if name in refs else None)}
    return out


def traced(wl) -> tuple:
    """The traced run: fixed rounds, each untraced and then traced."""
    from layers import layer_metrics
    from spans import Tracer
    from workloads import Cli

    imports = [import_seconds() for _ in range(1 if wl.tiny else IMPORT_REPS)]
    tracer = Tracer()
    # Each round runs untraced, then traced; both are timed at the
    # reference speed, which gives the tracing overhead.
    overhead = calib.Meter(interval=0.0)
    cli_meter = calib.Meter(interval=0.0)
    discard = calib.Discard()
    ill = 0
    rounds = []
    traced_rounds = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        objs = wl.build()
        with tracer:
            objs_traced = wl.build()
        for r in range(1 if wl.tiny else wl.trace_rounds):
            if isinstance(wl, Cli):
                # Untraced processes, for the subcommands' wall times.
                rounds.append((r, wl.run_round(r, objs, cli_meter)))
            t0 = time.perf_counter()
            rounds.append((r, wl.in_process_round(r, objs, discard)))
            overhead.op(time.perf_counter() - t0)
            n0 = len(caught)
            with tracer:
                t0 = time.perf_counter()
                traced_rounds.append((r, wl.in_process_round(r, objs_traced,
                                                             discard)))
                overhead.op(time.perf_counter() - t0)
            ill += warning_counts(caught[n0:]).get("IllConditionedSystem", 0)
        n0 = len(caught)
        others = census(wl, tracer, cli_meter)
        ill += warning_counts(caught[n0:]).get("IllConditionedSystem", 0)
    timed = overhead.ops()
    refs = wl.load_refs()
    tally = wl.tally([(r, wl.finish(res)) for r, res in rounds], refs)
    # Only the traced work's defects go into design.fail_ratio, whose
    # denominator is the traced design calls.
    own = wl.tally([(r, wl.finish(res)) for r, res in traced_rounds], refs)
    defects = own["defect"]
    for key in ("attempted", "failed", "rejected", "defect"):
        tally[key] += own[key]
    for other, other_rounds in others:
        counts = other.tally([(r, other.finish(res))
                              for r, res in other_rounds], other.load_refs())
        defects += counts["defect"]
        for key in ("attempted", "failed", "rejected", "defect"):
            tally[key] += counts[key]
    extra = {
        "import_maxflat_s": statistics.median(i[0] for i in imports),
        "import_scipy_signal_s": statistics.median(i[1] for i in imports),
        "cli_wall_s": subcommand_seconds(cli_meter.ops()),
        "cli_bytes_written": next(w.bytes_written for w in [wl] + [
            o for o, _ in others] if isinstance(w, Cli)),
        "ill_conditioned": ill,
        "design_defects": defects,
        "overhead_share": sum(timed[1::2]) / sum(timed[0::2]) - 1.0,
    }
    metrics = layer_metrics(tracer.table(), extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.json"))
    info = {"rounds": len(rounds) + len(traced_rounds),
            "spans": len(tracer.spans),
            "warnings": warning_counts(caught)}
    return metrics, tally, info


def census(wl, tracer, cli_meter) -> list:
    """One tiny round of every other workload, traced, so that every layer
    is measured in every workload's traced run: a layer that is never
    called would report a time of exactly 0.  Returns (workload, rounds)
    pairs to check."""
    from workloads import WORKLOADS, Cli

    out = []
    for name, cls in WORKLOADS.items():
        if name == wl.name:
            continue
        other = cls(wl.seed, True, wl.work_dir)
        with tracer:
            rounds = [(0, other.in_process_round(0, other.build(),
                                                 calib.Discard()))]
        if isinstance(other, Cli):
            # Untraced processes, for the subcommands' wall times.
            rounds.append((1, other.run_round(1, {}, cli_meter)))
        out.append((other, rounds))
    return out


def expected_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the
    calibration and the work it scales share a CPU.  The one operation in
    flight never needs two."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"warning: not pinned to one CPU: {exc}", file=sys.stderr)


def run(args) -> int:
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    pin_to_one_cpu()

    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
        if args.trace:
            metrics, tally, info = traced(wl)
        else:
            metrics, tally, info = measure(wl, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report_warnings(wl.name, info["warnings"])
    expected = expected_metrics(args.trace)
    emitted = {k: u for k, (_, u) in metrics.items()}
    if emitted != expected:
        diff = sorted(set(emitted.items()) ^ set(expected.items()))
        print(f"error: metrics differ from BENCHMARK.json: {diff}",
              file=sys.stderr)
        return 1
    info.update({"workload": wl.name, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "tiny": args.tiny, "env": environment(args.seed, nproc),
                 "rejected": tally["rejected"], "defect": tally["defect"],
                 "checked_against_refs": tally["checked_against_refs"]})
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced."""
    from workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", "0", "--seconds", "0", "--trace", str(trace),
                 "--tiny"], capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{name} trace={trace}: exit "
                                f"{proc.returncode}\n{proc.stderr}")
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"} \
                    or got != expected_metrics(trace):
                problems.append(f"{name} trace={trace}: metrics {got}")
            if result["attempted"] < 1 or not result["correct"]:
                problems.append(f"{name} trace={trace}: checks {result}")
            print(f"{name} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations checked, "
                  f"{result['failed']} failed, {info['rounds']} rounds")
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("detect-mc", "design-sweep",
                                               "track-long", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes and one round (used by --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny, check the output")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maxflat", "__init__.py")):
        print(f"error: no maxflat package under {SRC}; run from the root of "
              "a maxflat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
