"""Record a baseline of every metric: ten untraced runs per workload, each
with another seed, and one traced run per workload.

    python3 bench/baseline.py [workload ...]

Run it from the root of a checkout; it writes ``bench/baseline.json`` with,
per workload and end-to-end metric, the ten values, their median, their
quartiles (``statistics.quantiles(values, n=4)``) and the spread (the
distance between the quartiles over the median); the same for the run
line's uncalibrated timings (``raw``); and the per-layer metrics of the
traced run.  It takes about 25 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = range(10)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(names) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = names or [w["name"] for w in spec["workloads"]]
    path = os.path.join(BENCH_DIR, "baseline.json")
    out = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS),
           "workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            out["workloads"] = json.load(fh).get("workloads", {})
    for name in names:
        values: dict = {}
        raw: dict = {}
        runs = []
        for seed in SEEDS:
            info, result = run(name, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"], "info": info})
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            for k, v in info["raw"].items():
                raw.setdefault(k, []).append(v)
            print(f"{name} seed {seed}: {result['metrics']}", file=sys.stderr)
        e2e = {m["name"]: dict(summary(values[m["name"]]), unit=m["unit"],
                               bound=m["bound"])
               for m in spec["end_to_end"]}
        info, result = run(name, 0, spec["run_seconds"], 1)
        out["workloads"][name] = {
            "env": runs[0]["info"]["env"],
            "end_to_end": e2e,
            "raw": {k: summary(v) for k, v in raw.items()},
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted",
                                         "failed")} for r in runs],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "traced_run": {k: info[k] for k in ("rounds", "spans")},
        }
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
