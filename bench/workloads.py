"""The four workloads of the maxflat benchmark.

Every workload is a closed loop in one process with one operation in
flight: it runs numbered rounds of offline batch work, back to back, until
the measuring time is spent.  Round ``r`` draws its inputs from
``SeedSequence(seed, spawn_key=(r,))`` or from fixed grids, so a seed fixes
every input of every round.

An operation's outcome is a record ``(status, values, tolerances, weight)``:

- ``status`` is ``ok``; ``rejected`` (a design the program refused with a
  ``ValueError``, the documented typed error); ``defect`` (a design the
  program returned that fails its own constraint check, a known defect of
  the program at the commit the benchmark was defined on); ``invalid`` (an
  output that breaks an invariant: NaN, complex coefficients, a wrong exit
  code, a reference mismatch); or ``error`` (any other exception).
  ``rejected`` and ``defect`` count against ``ok_share``; ``invalid`` and
  ``error`` are failures, and so is a ``rejected`` or ``defect`` where the
  reference has a valid design;
- ``values`` are numbers or position-weighted digests of the outputs, each
  compared with the stored reference within its own absolute tolerance;
- ``weight`` is the number of operations the record covers (a detector's
  batch of trials is one record).

References live in ``refs/<workload>.json``: a ``shared`` list for the
outputs that do not depend on the seed, checked in every round, and per
seed a list of rounds.  Rounds or seeds without references get the
invariant checks only.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout

import numpy as np

from maxflat import analyze, cli, design, detector, tracker
from maxflat.design import DesignSpec

import ready

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

#: Relative tolerance of digests of outputs whose arithmetic is a fixed
#: recursion (statistics, tracks, CSV columns): rounding level.
RTOL = 1e-9
#: Absolute tolerance on an AUC.
AUC_TOL = 1e-12
#: Relative tolerance of design digests.  The worst grid specs have
#: condition estimates near 1e12, so a rounding-level change in the solve
#: moves their coefficients far more than 1e-9.
DESIGN_RTOL = 1e-6


def _weights(n: int) -> np.ndarray:
    return 1.0 + (np.arange(n) % 7) / 7.0


def digest(x, rtol: float = RTOL) -> tuple:
    """A position-weighted sum of an array and its tolerance."""
    x = np.asarray(x, dtype=float).ravel()
    w = _weights(x.size)
    return float(np.dot(w, x)), rtol * float(np.dot(w, np.abs(x)))


def record(status: str, parts=(), weight: int = 1) -> tuple:
    values = [float(v) for v, _ in parts]
    tols = [float(t) for _, t in parts]
    finite = all(np.isfinite(values))
    if status == "ok" and not finite:
        status = "invalid"
    return status, values, tols, weight


def check(rec: tuple, ref) -> bool:
    """True when a record is valid and, if there is a reference, agrees
    with it.  A spec the reference commit rejected or designed wrongly may
    now succeed."""
    status, values, tols, _ = rec
    if status in ("invalid", "error"):
        return False
    if ref is None:
        return True
    ref_status, ref_values = ref
    if ref_status in ("rejected", "defect"):
        return True
    if status != "ok" or len(values) != len(ref_values):
        return False
    return all(abs(v - r) <= t for v, r, t in zip(values, ref_values, tols))


def child_env() -> dict:
    """The environment of child interpreters: ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))


def round_seed(seed: int, r: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(r,))
    return int(ss.generate_state(1)[0])


class Workload:
    """A named workload: set-up, numbered rounds, and the operation unit."""

    name = ""
    #: Rounds in a traced run; fixed, so that traced counts repeat exactly.
    trace_rounds = 1
    #: True when every round repeats the same seeded inputs.
    same_every_round = False
    #: Run round 0 untimed before the measuring loop.
    warm_up = True
    #: Seconds of work between machine-speed calibrations.
    cal_interval = 0.1
    #: Consecutive timed pieces (``meter.op`` calls) whose summed time
    #: over summed units is one sample of ``op_p50_ms``.
    op_group = 1

    def __init__(self, seed: int, tiny: bool, work_dir: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work_dir = work_dir

    def build(self) -> dict:
        return ready.build(self.name)

    def run_round(self, r: int, objs: dict, meter) -> tuple:
        """Run round r, passing each operation's seconds to meter.op, and
        return (shared records, seeded records)."""
        raise NotImplementedError

    def in_process_round(self, r: int, objs: dict, meter) -> tuple:
        """Round r with all work in this process, as traced runs need."""
        return self.run_round(r, objs, meter)

    def finish(self, result: tuple) -> tuple:
        """Turn what run_round returned into (shared, seeded) records."""
        return result

    def load_refs(self) -> dict:
        path = os.path.join(REFS_DIR, f"{self.name}.json")
        if self.tiny or not os.path.exists(path):
            return {"shared": None, "seeds": {}}
        with open(path) as fh:
            return json.load(fh)

    def tally(self, rounds: list, refs: dict) -> dict:
        """Check every round's records; count attempted, failed and ok."""
        seeded = refs["seeds"].get(str(self.seed), [])
        out = {"attempted": 0, "failed": 0, "ok": 0, "rejected": 0,
               "defect": 0, "checked_against_refs": 0}
        for r, (shared, own) in rounds:
            i = 0 if self.same_every_round else r
            own_refs = seeded[i] if i < len(seeded) else None
            for recs, ref_list in ((shared, refs["shared"]), (own, own_refs)):
                if ref_list is not None and len(ref_list) != len(recs):
                    # References of another benchmark version.
                    n = sum(rec[3] for rec in recs)
                    out["attempted"] += n
                    out["failed"] += n
                    continue
                for j, rec in enumerate(recs):
                    ref = ref_list[j] if ref_list is not None else None
                    passed = check(rec, ref)
                    out["attempted"] += rec[3]
                    out["checked_against_refs"] += ref is not None
                    out["failed" if not passed else rec[0]] += rec[3]
        return out

    @staticmethod
    def ref_form(recs: list) -> list:
        return [[rec[0], rec[1]] for rec in recs]


# --------------------------------------------------------------------------
# detect-mc


class DetectMC(Workload):
    """All five detectors, one ``run_detection_mc`` call of a batch of
    trials each per round, with a per-round seed.  Pipelines are built in
    set-up.  The timed operation is the call, so that however the program
    runs its trials inside it, the benchmark measures the same work; a
    round's time over its trials is the reported time per trial."""

    name = "detect-mc"
    trace_rounds = 10
    op_group = len(detector.DETECTOR_TAGS)

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.trials = 4 if tiny else 200

    def run_round(self, r, objs, meter):
        seed_r = round_seed(self.seed, r)
        own = []
        for tag in detector.DETECTOR_TAGS:
            t0 = time.perf_counter()
            roc = detector.run_detection_mc(objs[tag], self.trials, seed_r)
            meter.op(time.perf_counter() - t0, units=self.trials)
            status = "ok" if 0.0 <= roc.auc <= 1.0 else "invalid"
            own.append(record(status, [(roc.auc, AUC_TOL), digest(roc.p_fa),
                                       digest(roc.p_d)], weight=self.trials))
        return [], own


# --------------------------------------------------------------------------
# design-sweep

#: Fixed delay of the grid's fixed-delay specs, in samples.
FIXED_DELAY = 5.0
#: Specs drawn from the seed per round, as acceptance criterion 03 draws.
DRAWN_PER_ROUND = 32


def grid_specs(tiny: bool) -> list:
    """Causal specs over K_w_dc 2-8, K_w_nb 0-3, K_t 1-3, optimal and fixed
    delay; and two-sided specs of even K."""
    f_nb = 0.07
    specs = []
    for kdc in range(2, 9):
        for knb in range(4):
            for kt in range(1, min(kdc, 3) + 1):
                for q in (design.OPTIMAL, FIXED_DELAY):
                    specs.append(DesignSpec(
                        f_s=1000.0, f_wb=0.05, f_nb=f_nb if knb else None,
                        k_w_dc=kdc, k_w_nb=knb, k_t=kt, group_delay=q))
    for kdc in (2, 4, 6, 8):
        for knb in range(4):
            for kt in (1, 2):
                specs.append(DesignSpec(
                    f_s=1000.0, f_wb=0.05, f_nb=f_nb if knb else None,
                    k_w_dc=kdc, k_w_nb=knb, k_t=kt, group_delay=0.0,
                    causal=False))
    return specs[::12] if tiny else specs


def drawn_specs(rng: np.random.Generator, n: int) -> list:
    specs = []
    while len(specs) < n:
        kt = int(rng.integers(1, 4))
        kdc = int(rng.integers(kt, 7))
        knb = int(rng.integers(0, 3))
        kpi = int(rng.integers(0, 3))
        if kdc + 2 * knb + kpi > 12:
            continue
        f_wb = float(rng.uniform(0.02, 0.15))
        f_nb = float(rng.uniform(f_wb + 0.01, 0.45)) if knb else None
        f_s = float(rng.choice([1.0, 10.0, 1000.0]))
        q = float(rng.uniform(0, 15)) if rng.random() < 0.5 else design.OPTIMAL
        specs.append(DesignSpec(f_s=f_s, f_wb=f_wb, f_nb=f_nb, k_w_dc=kdc,
                                k_w_nb=knb, k_w_pi=kpi, k_t=kt, group_delay=q))
    return specs


def design_op(spec: DesignSpec, omegas: np.ndarray) -> tuple:
    """One design: solve, evaluate every output on the grid, verify.

    Returns (q, sigma, a, b, responses, constraints_hold)."""
    if spec.causal:
        d = design.design_filterbank(spec)
        h = [analyze.frequency_response(d.b[k], d.a, omegas)
             for k in range(spec.k_t)]
        holds = all(c.analytic_ok and c.fd_ok
                    for c in analyze.verify_constraints(spec, d))
        return d.q, d.sigma, d.a, np.concatenate(d.b), h, holds
    fwd, bwd = design.noncausal_design(spec)
    h = [analyze.noncausal_response(fwd, bwd, omegas, k)
         for k in range(spec.k_t)]
    # omegas[0] = 0: the zero-delay smoother passes dc, derivatives are 0.
    holds = all(abs(h[k][0] - (1.0 if k == 0 else 0.0)) <= 1e-6 * spec.f_s ** k
                for k in range(spec.k_t))
    return (fwd.q, np.concatenate([fwd.sigma.ravel(), bwd.sigma.ravel()]),
            np.concatenate([fwd.a, bwd.a]),
            np.concatenate(list(fwd.b) + list(bwd.b)), h, holds)


def design_record(spec: DesignSpec, omegas: np.ndarray, meter) -> tuple:
    t0 = time.perf_counter()
    try:
        q, sigma, a, b, h, holds = design_op(spec, omegas)
    except ValueError:  # the documented rejection of a spec
        return record("rejected")
    except Exception:  # noqa: BLE001  any other exception is a failure
        traceback.print_exc()
        return record("error")
    finally:
        meter.op(time.perf_counter() - t0)
    real = all(np.isrealobj(x) for x in (sigma, a, b))
    finite = all(np.all(np.isfinite(x)) for x in [sigma, a, b] + h)
    status = "invalid" if not (real and finite) else \
        "ok" if holds else "defect"
    return record(status, [(q, DESIGN_RTOL * (1.0 + abs(q))),
                           digest(sigma, DESIGN_RTOL), digest(a, DESIGN_RTOL),
                           digest(b, DESIGN_RTOL)])


class DesignSweep(Workload):
    """The fixed grid plus specs drawn from the seed; each design is
    followed by the response of every output and the constraint check."""

    name = "design-sweep"
    trace_rounds = 4

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.grid = grid_specs(tiny)
        self.drawn = 4 if tiny else DRAWN_PER_ROUND
        self.omegas = np.linspace(0.0, np.pi, 256)

    def run_round(self, r, objs, meter):
        shared = [design_record(s, self.omegas, meter) for s in self.grid]
        own = [design_record(s, self.omegas, meter)
               for s in drawn_specs(round_rng(self.seed, r), self.drawn)]
        return shared, own


# --------------------------------------------------------------------------
# track-long

#: Samples per axis of each tracking run.
TRACK_SAMPLES = 100_000


class TrackLong(Workload):
    """Trackers A-D on both scenarios at 1e5 samples per axis, plus the
    orbit check of every tracker.  Tracker designs are built in set-up."""

    name = "track-long"
    trace_rounds = 16

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.samples = 2_000 if tiny else TRACK_SAMPLES

    def run_round(self, r, objs, meter):
        clock = time.perf_counter
        seed_r = round_seed(self.seed, r)
        shared, own = [], []
        for tag, d in objs.items():
            for scenario in ("LoG", "HiG"):
                t0 = clock()
                run = tracker.run_tracking_mc(scenario, d, seed_r,
                                              n_samples=self.samples)
                meter.op(clock() - t0)
                ok = run.rms_error > 0.0
                own.append(record("ok" if ok else "invalid",
                                  [(run.rms_error, RTOL * run.rms_error)]))
            rows = tracker.orbit_check(d)
            table = np.array([[row["eps_r_predicted"], row["eps_r_measured"],
                               row["eps_theta_predicted"],
                               row["eps_theta_measured"]] for row in rows])
            # Simulation and closed form must agree (radius 1).
            agree = bool(np.all(np.abs(table[:, 0] - table[:, 1]) <= 1e-6)
                         and np.all(np.abs(table[:, 2] - table[:, 3]) <= 1e-6))
            shared.append(record("ok" if agree else "invalid",
                                 [digest(table[:, k]) for k in range(4)]))
        return shared, own


# --------------------------------------------------------------------------
# cli

CLI_SUBCOMMANDS = ("design", "response", "detect-sim", "track-sim")


def cli_argv(sub: str, out: str, seed: int, tiny: bool) -> list:
    """README-sized arguments of one subcommand, writing into out."""
    p = lambda name: os.path.join(out, name)  # noqa: E731
    if sub == "design":
        return ["design", "--fs", "1000", "--fwb", "0.05", "--fnb", "0.07",
                "--kdc", "3", "--knb", "3", "--kt", "3",
                "-o", p("design.json")]
    if sub == "response":
        return ["response", "--design", p("design.json"),
                "--grid", "64" if tiny else "2048", "-o", p("response.csv")]
    if sub == "detect-sim":
        return ["detect-sim", "--detector", "IIR_BW1",
                "--trials", "20" if tiny else "2000", "--seed", str(seed),
                "--roc", p("roc.csv"), "--summary", p("summary.json")]
    return ["track-sim", "--tracker", "B", "--scenario", "LoG",
            "--seed", str(seed), "--samples", "2000" if tiny else "100000",
            "--track-csv", p("track.csv"), "--orbit-csv", p("orbit.csv")]


CLI_FILES = {"design": ("design.json",), "response": ("response.csv",),
             "detect-sim": ("roc.csv", "summary.json"),
             "track-sim": ("track.csv", "orbit.csv")}


def _csv_columns(path: str) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def cli_record(sub: str, out: str, exit_code: int) -> tuple:
    """Parse one subcommand's outputs into a record."""
    if exit_code != 0:
        return record("invalid")
    try:
        if sub == "design":
            with open(os.path.join(out, "design.json")) as fh:
                d = json.load(fh)
            q = float(d["q_smp"])
            return record("ok", [(q, RTOL * (1 + abs(q))), digest(d["a"]),
                                 digest(d["b"]), digest(d["sigma"])])
        if sub == "response":
            cols = _csv_columns(os.path.join(out, "response.csv"))
            return record("ok", [digest(c) for c in cols.T])
        if sub == "detect-sim":
            with open(os.path.join(out, "summary.json")) as fh:
                s = json.load(fh)
            cols = _csv_columns(os.path.join(out, "roc.csv"))
            status = "ok" if 0.0 <= s["auc"] <= 1.0 else "invalid"
            return record(status, [(s["auc"], AUC_TOL)]
                          + [(s[k], RTOL * (1 + abs(s[k])))
                             for k in ("q", "sigma0", "h_wb", "h_nb")]
                          + [digest(c) for c in cols.T])
        cols = _csv_columns(os.path.join(out, "track.csv"))
        orbit = _csv_columns(os.path.join(out, "orbit.csv"))
        agree = bool(np.all(np.abs(orbit[:, 1] - orbit[:, 2]) <= 1e-6)
                     and np.all(np.abs(orbit[:, 3] - orbit[:, 4]) <= 1e-6))
        return record("ok" if agree else "invalid",
                      [digest(c) for c in cols.T]
                      + [digest(c) for c in orbit.T])
    except (OSError, ValueError, KeyError):
        return record("invalid")


def sha256_files(out: str, sub: str) -> dict:
    hashes = {}
    for name in CLI_FILES[sub]:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


class Cli(Workload):
    """One session per round: the four subcommands, each a fresh
    ``python -m maxflat.cli`` process, at README-like sizes."""

    name = "cli"
    trace_rounds = 2
    same_every_round = True
    # The parent's own import and the set-up children already warm the
    # caches a session reads.
    warm_up = False
    # Calibrate after every process; a session of four is one operation.
    cal_interval = 0.0
    op_group = len(CLI_SUBCOMMANDS)

    def __init__(self, seed, tiny, work_dir):
        super().__init__(seed, tiny, work_dir)
        self.env = child_env()
        self.hashes = []
        self.in_process_runs = 0
        self.bytes_written = 0

    def session_dir(self, tag: str) -> str:
        path = os.path.join(self.work_dir, tag)
        os.makedirs(path, exist_ok=True)
        return path

    def run_round(self, r, objs, meter):
        """Run the session's processes; only hash the outputs here and
        keep them, so that parsing stays out of the measuring loop."""
        out = self.session_dir(f"session-{r}")
        codes = {}
        hashes = {}
        for sub in CLI_SUBCOMMANDS:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "maxflat.cli"]
                + cli_argv(sub, out, self.seed, self.tiny),
                env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, check=False)
            # A session is one operation; each process is a share of it.
            meter.op(time.perf_counter() - t0,
                     units=1.0 / len(CLI_SUBCOMMANDS))
            codes[sub] = proc.returncode
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
            hashes.update(sha256_files(out, sub))
        self.hashes.append(hashes)
        return out, codes

    def finish(self, result: tuple) -> tuple:
        out, codes = result
        recs = [cli_record(sub, out, codes[sub]) for sub in CLI_SUBCOMMANDS]
        return recs[:2], recs[2:]

    def in_process_round(self, r, objs, meter):
        """The session through cli.main in this process; records the bytes
        it wrote."""
        self.in_process_runs += 1
        out = self.session_dir(f"in-process-{self.in_process_runs}")
        self.bytes_written = 0
        for sub in CLI_SUBCOMMANDS:
            with redirect_stdout(io.StringIO()):
                code = cli.main(cli_argv(sub, out, self.seed, self.tiny))
            if code != 0:
                raise RuntimeError(f"in-process cli {sub} exited {code}")
            self.bytes_written += sum(os.path.getsize(os.path.join(out, f))
                                      for f in CLI_FILES[sub])
        return out, dict.fromkeys(CLI_SUBCOMMANDS, 0)


WORKLOADS = {w.name: w for w in (DetectMC, DesignSweep, TrackLong, Cli)}
