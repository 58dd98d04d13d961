"""Write the reference outputs the benchmark checks against.

    python3 bench/make_refs.py [workload ...]

Run it from the root of a checkout whose outputs are the reference; it
overwrites ``bench/refs/<workload>.json`` for seeds ``REF_SEEDS``.  A
change to the program that is meant to change outputs regenerates them in
its own change, which says why they moved.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from calib import Discard  # noqa: E402
from workloads import (CLI_SUBCOMMANDS, REFS_DIR, WORKLOADS,  # noqa: E402
                       sha256_files)

#: Seeds with references.
REF_SEEDS = range(20)
#: Rounds with references, per seed; later rounds get invariant checks.
REF_ROUNDS = {"detect-mc": 32, "design-sweep": 4, "track-long": 32, "cli": 1}


def _rounded(x):
    """13 significant digits: ample for tolerances of 1e-12 and wider."""
    if isinstance(x, float):
        return float(f"{x:.13g}")
    if isinstance(x, list):
        return [_rounded(v) for v in x]
    return x


def make(name: str, work_dir: str) -> dict:
    refs = {"shared": None, "seeds": {}}
    for seed in REF_SEEDS:
        wl = WORKLOADS[name](seed, False, work_dir)
        objs = wl.build()
        rounds = []
        for r in range(REF_ROUNDS[name]):
            result = wl.in_process_round(r, objs, Discard())
            shared, own = wl.finish(result)
            if name == "cli":
                refs.setdefault("sha256", {})[str(seed)] = {
                    k: v for sub in CLI_SUBCOMMANDS
                    for k, v in sha256_files(result[0], sub).items()}
            refs["shared"] = _rounded(wl.ref_form(shared))
            rounds.append(_rounded(wl.ref_form(own)))
        refs["seeds"][str(seed)] = rounds
        print(f"{name} seed {seed}: {len(rounds)} rounds", file=sys.stderr)
    return refs


def main(names) -> int:
    os.makedirs(REFS_DIR, exist_ok=True)
    out_dir = os.path.join(os.path.dirname(BENCH_DIR), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="refs-", dir=out_dir)
    try:
        for name in names or WORKLOADS:
            refs = make(name, work_dir)
            with open(os.path.join(REFS_DIR, f"{name}.json"), "w") as fh:
                json.dump(refs, fh, separators=(",", ":"))
                fh.write("\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
