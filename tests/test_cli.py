"""Command-line interface: exit codes, serialization round trips, outputs,
and which subcommands load SciPy."""

import inspect
import json
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import maxflat
from maxflat import cli, detector, tracker
from maxflat.design import (DesignSpec, IllConditionedSystem, NumericalError,
                            design_filterbank, noncausal_design)


def _read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Serialization helpers


def test_float_serialization_round_trips_exactly():
    values = [0.1, 1.0 / 3.0, 12.389488083396317, -1e-300, 2.0 ** -52]
    s = cli.dumps_json({"v": values})
    back = json.loads(s)["v"]
    assert back == values  # bit-exact: repr(float) round-trips


def test_dumps_json_numpy_values_keep_type_and_bits():
    """NumPy arrays and scalars come back as the Python value of the same
    kind, every float bit for bit."""
    obj = {"array": np.array([[0.1, -0.0], [5e-324, 1.0 / 3.0]]),
           "int": np.int64(-7), "bool": np.bool_(True),
           "float": np.float64(0.1), "neg_zero": np.float64(-0.0),
           "subnormal": np.float64(5e-324)}
    back = json.loads(cli.dumps_json(obj))
    assert back["array"] == [[0.1, -0.0], [5e-324, 1.0 / 3.0]]
    assert np.array_equal(np.array(back["array"]).view(np.uint64),
                          obj["array"].view(np.uint64))
    assert type(back["int"]) is int and back["int"] == -7
    assert back["bool"] is True
    for key in ("float", "neg_zero", "subnormal"):
        assert type(back[key]) is float
        assert np.float64(back[key]).view(np.uint64) == \
            obj[key].view(np.uint64)


def test_dumps_json_rejects_other_objects():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli.dumps_json({"x": {1, 2}})


def _write_csv_per_value(path, header, data):
    """The CSV writer as it was before chunking: one format() per number."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(data):
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def _csv_matrices():
    rng = np.random.default_rng(11)
    n = cli.CSV_CHUNK_ROWS + 1  # crosses one chunk boundary
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, -1e16,
               2.0 ** 53 + 2, 0.1, -2.5e-308, 1.7976931348623157e308]
    bits = rng.integers(0, 2 ** 64, size=(n, 3), dtype=np.uint64)
    mixed = bits.view(np.float64).copy()
    mixed[:len(special), 0] = special
    mixed[-len(special):, 2] = special
    return {
        "random bit patterns and specials": mixed,
        "integer column": np.column_stack([np.arange(n), rng.normal(size=n)]),
        "integer dtype": np.arange(3 * n, dtype=np.int64).reshape(n, 3) - n,
        "one row": rng.normal(size=(1, 5)),
        "one column": rng.normal(size=(n, 1)),
        "one-dimensional": np.array(special),
        "exact chunk": rng.normal(size=(cli.CSV_CHUNK_ROWS, 2)),
        "no rows": np.empty((0, 4)),
        "no columns": np.empty((3, 0)),
    }


@pytest.mark.parametrize("case", list(_csv_matrices()))
def test_write_csv_matches_per_value_writer(tmp_path, case):
    """The chunked writer writes the same bytes as format(v, '.17g') per
    value, specials and integers included."""
    data = _csv_matrices()[case]
    header = [f"c{j}" for j in range(np.atleast_2d(data).shape[1])]
    cli._write_csv(str(tmp_path / "new.csv"), header, data)
    _write_csv_per_value(str(tmp_path / "ref.csv"), header, data)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\n") == 1 + np.atleast_2d(data).shape[0]


def _exactness_sweep():
    """About 1.0e6 numbers that probe each step of the vectorized writer:
    the decade estimate next to powers of ten, the exact product, rounding
    with exact ties, and the edges of fixed notation."""
    rng = np.random.default_rng(2021)
    # Decimals of 1 to 17 significant digits over [1e-6, 1e18], each the
    # nearest float to m * 10**p, and both float neighbours of each.
    decimals = []
    for d in range(1, 18):
        m = rng.integers(10 ** (d - 1), 10 ** d, size=15000)
        p = rng.integers(-6 - d + 1, 19 - d, size=15000)
        decimals.append(np.array([f"{mm}e{pp}" for mm, pp in
                                  zip(m.tolist(), p.tolist())], dtype=float))
    decimals = np.concatenate(decimals)
    # x.5 at the 17th digit: 1 + m * 2**-17 for odd m has 18 significant
    # digits, the last a 5.
    ties = 1.0 + (2 * rng.integers(0, 2 ** 16, size=20_000) + 1) * 2.0 ** -17
    powers = np.array([float(10 ** k) if k >= 0 else 1.0 / 10 ** -k
                       for k in range(-6, 19)])
    near_powers = [powers]
    below = above = powers
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        near_powers += [below, above]
    integers = rng.integers(0, 2 ** 53, size=100_000, endpoint=True)
    integers[:54] = 2 ** np.arange(54) - 1
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
               2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308]
    subnormals = rng.integers(1, 2 ** 52, size=1000).view(np.float64)
    bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
    values = np.concatenate(
        [decimals, np.nextafter(decimals, 0.0),
         np.nextafter(decimals, np.inf), ties, ties * 1e-3, -ties,
         *near_powers, -powers, integers.astype(float), special,
         subnormals, bits.view(np.float64)])
    return values[:values.size // 16 * 16].reshape(-1, 16)


def test_write_csv_exactness_sweep(tmp_path):
    """Over about 1.0e6 numbers chosen to hit every branch of the exact
    digit computation, the writer writes the oracle's bytes."""
    values = _exactness_sweep()
    assert values.size > 1_000_000
    rng = np.random.default_rng(7)
    cases = {
        "sweep": values,
        "float32": rng.normal(size=(3000, 3)).astype(np.float32)
        * np.float32(10.0) ** rng.integers(-8, 20, size=(3000, 3)),
        "int64": rng.integers(-2 ** 63, 2 ** 63, size=(3000, 3),
                              dtype=np.int64),
        "one-dimensional": values[:40].ravel(),
        "Fortran-ordered": np.asfortranarray(values[:3000, :5]),
        "strided": values[:6000:2, ::3],
    }
    for name, data in cases.items():
        header = [f"c{j}" for j in range(np.atleast_2d(data).shape[1])]
        cli._write_csv(str(tmp_path / "new.csv"), header, data)
        _write_csv_per_value(str(tmp_path / "ref.csv"), header, data)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes(), name


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda width: st.lists(
           st.lists(st.floats(), min_size=width, max_size=width),
           min_size=1, max_size=12)),
       chunk_rows=st.integers(1, 5))
def test_write_csv_matches_per_value_writer_on_drawn_rows(rows, chunk_rows):
    """Any rows of floats, nan and inf included, in chunks of 1 to 5 rows
    so that most runs cross chunk boundaries, write the oracle's bytes."""
    header = [f"c{j}" for j in range(len(rows[0]))]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk_rows):
        new, ref = os.path.join(tmp, "new.csv"), os.path.join(tmp, "ref.csv")
        cli._write_csv(new, header, np.array(rows))
        _write_csv_per_value(ref, header, np.array(rows))
        with open(new, "rb") as fh_new, open(ref, "rb") as fh_ref:
            assert fh_new.read() == fh_ref.read()


def test_spec_config_round_trip():
    spec = DesignSpec(f_s=250.0, f_wb=0.04, f_nb=0.09, k_w_dc=4, k_w_nb=2,
                      k_w_pi=1, k_t=2, group_delay=3.5)
    assert cli.spec_from_config(cli.spec_to_config(spec)) == spec


@pytest.mark.parametrize("spec", [
    DesignSpec(f_s=250.0, f_wb=0.04, f_nb=0.09, k_w_dc=4, k_w_nb=2,
               k_w_pi=1, k_t=2, group_delay=3.5),
    DesignSpec(f_s=1000.0, f_wb=0.05, k_w_dc=3, k_t=3),
    DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=4, k_w_nb=2,
               k_t=1, group_delay=0.0, causal=False),
], ids=["causal-numeric-delay", "causal-optimal-no-fnb", "two-sided"])
def test_spec_config_json_round_trip(spec):
    text = cli.dumps_json(cli.spec_to_config(spec))
    back = cli.spec_from_config(json.loads(text))
    assert back == spec
    assert type(back.causal) is bool


def test_unknown_config_keys_rejected():
    cfg = cli.spec_to_config(DesignSpec(f_s=1.0, f_wb=0.05, k_w_dc=2, k_t=1))
    cfg["bandwidth_hz"] = 3.0
    with pytest.raises(ValueError, match="unknown config keys: bandwidth_hz"):
        cli.spec_from_config(cfg)


def test_design_payload_round_trip(bw1_spec, bw1_design):
    payload = json.loads(cli.dumps_json(cli.design_to_payload(bw1_spec)))
    d = cli.bank_from_payload(payload)
    assert np.array_equal(d.a, bw1_design.a)
    assert all(np.array_equal(x, y) for x, y in zip(d.b, bw1_design.b))
    assert np.array_equal(d.poles, bw1_design.poles)
    assert np.array_equal(d.c, bw1_design.c)
    assert np.array_equal(d.sigma, bw1_design.sigma)
    assert d.q == bw1_design.q and d.t_s == bw1_design.t_s


@pytest.mark.parametrize("half", [None, 0, 1],
                         ids=["BW1", "two-sided forward",
                              "two-sided backward"])
def test_bank_read_from_json_is_the_designed_read_only_value(bw1_spec,
                                                             half):
    """BW1 and each half of the README's two-sided design come back from
    design_to_payload, JSON and bank_from_payload as the value the design
    step hands out: b one float64 (K_t, K+1) array, every array read-only
    and each equal to the designed one bit for bit."""
    if half is None:
        spec, designed = bw1_spec, design_filterbank(bw1_spec)
    else:
        spec = DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07, k_w_dc=4,
                          k_w_nb=2, k_t=1, group_delay=0.0, causal=False)
        designed = noncausal_design(spec)[half]
    payload = json.loads(cli.dumps_json(cli.design_to_payload(spec)))
    if half is not None:
        payload = payload[("forward", "backward")[half]]
    d = cli.bank_from_payload(payload)
    assert d.b.dtype == np.float64
    assert d.b.shape == (d.n_outputs, d.order + 1)
    for name in ("poles", "c", "sigma", "a", "b"):
        got, want = getattr(d, name), getattr(designed, name)
        assert not got.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 7.0
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert float(d.q).hex() == float(designed.q).hex()
    assert d.t_s == designed.t_s


# ---------------------------------------------------------------------------
# Subcommands end to end


def test_design_command_writes_json(tmp_path, capsys):
    out = tmp_path / "d.json"
    rc = cli.main(["design", "--fs", "1000", "--fwb", "0.05", "--fnb",
                   "0.07", "--kdc", "3", "--knb", "3", "--kt", "3",
                   "-o", str(out)])
    assert rc == 0
    payload = json.loads(_read(out))
    assert payload["q_smp"] == pytest.approx(12.389488083396317)
    assert len(payload["poles_re_im"]) == 9
    assert "wrote" in capsys.readouterr().out


def test_design_command_from_config(tmp_path):
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps({
        "fs_hz": 10.0, "f_wb_cyc_per_smp": 0.05, "f_nb_cyc_per_smp": 0.07,
        "k_w_dc": 3, "k_w_nb": 1, "k_t": 3,
        "group_delay_smp": "optimal"}))
    out = tmp_path / "d.json"
    rc = cli.main(["design", "--config", str(cfg), "-o", str(out)])
    assert rc == 0
    assert json.loads(_read(out))["spec"]["fs_hz"] == 10.0


@pytest.mark.parametrize("flags, causal", [
    (["--fs", "1000", "--fwb", "0.05", "--fnb", "0.07", "--kdc", "3",
      "--knb", "3", "--kt", "3"], True),
    (["--fwb", "0.05", "--fnb", "0.07", "--kdc", "4", "--knb", "2", "--kt",
      "1", "--q", "0", "--noncausal"], False),
])
def test_design_json_causal_is_boolean(tmp_path, flags, causal):
    """The spec's causal flag is written as a JSON boolean (it was once
    written as 1 or 0), and designing from the written spec reproduces the
    file byte for byte."""
    out = tmp_path / "d.json"
    assert cli.main(["design", *flags, "-o", str(out)]) == 0
    text = _read(out)
    spec = json.loads(text)["spec"]
    assert spec["causal"] is causal
    cfg = tmp_path / "spec.json"
    cfg.write_text(json.dumps(spec))
    again = tmp_path / "again.json"
    assert cli.main(["design", "--config", str(cfg), "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_noncausal_design_command(tmp_path, capsys):
    """A two-sided file holds q_smp only in each half; the command prints
    that q (it once printed 0.0 whatever --q was)."""
    out = tmp_path / "nc.json"
    rc = cli.main(["design", "--fwb", "0.05", "--fnb", "0.07", "--kdc", "4",
                   "--knb", "2", "--kt", "1", "--q", "2", "--noncausal",
                   "-o", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out} (q = 2.0)\n"
    payload = json.loads(_read(out))
    assert "forward" in payload and "backward" in payload
    assert payload["forward"]["q_smp"] == payload["backward"]["q_smp"] == 2.0


def test_response_command(tmp_path):
    design_file = tmp_path / "d.json"
    cli.main(["design", "--kdc", "3", "--knb", "3", "--fnb", "0.07",
              "--kt", "3", "-o", str(design_file)])
    out = tmp_path / "r.csv"
    rc = cli.main(["response", "--design", str(design_file),
                   "--grid", "64", "-o", str(out)])
    assert rc == 0
    lines = _read(out).strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "f_cyc_per_smp"
    assert "magnitude_0" in header and "group_delay_2" in header
    assert len(lines) == 65
    first = dict(zip(header, map(float, lines[1].split(","))))
    assert first["magnitude_0"] == pytest.approx(1.0, abs=1e-9)


def test_response_command_rejects_noncausal_file(tmp_path):
    design_file = tmp_path / "nc.json"
    cli.main(["design", "--fwb", "0.05", "--fnb", "0.07", "--kdc", "4",
              "--knb", "2", "--kt", "1", "--q", "0", "--noncausal",
              "-o", str(design_file)])
    rc = cli.main(["response", "--design", str(design_file),
                   "-o", str(tmp_path / "r.csv")])
    assert rc == 2


@pytest.mark.parametrize("grid", [-3, 0, 1])
def test_response_grid_below_two_exit_code(tmp_path, capsys, grid):
    """--grid 0 and 1 ended in an IndexError traceback from np.gradient,
    and --grid -3 exited 2 with NumPy's linspace message."""
    design_file = tmp_path / "d.json"
    cli.main(["design", "-o", str(design_file)])
    out = tmp_path / "r.csv"
    rc = cli.main(["response", "--design", str(design_file),
                   "--grid", str(grid), "-o", str(out)])
    assert rc == 2
    assert f"grid must be at least 2, got {grid}" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["response", "--design", str(design_file),
                     "--grid", "2", "-o", str(out)]) == 0
    assert len(_read(out).strip().splitlines()) == 3


def test_detect_sim_command_deterministic(tmp_path):
    args = ["detect-sim", "--detector", "FIR_NUL_NC", "--trials", "8",
            "--seed", "3"]
    out1 = [str(tmp_path / "roc1.csv"), str(tmp_path / "s1.json")]
    out2 = [str(tmp_path / "roc2.csv"), str(tmp_path / "s2.json")]
    assert cli.main(args + ["--roc", out1[0], "--summary", out1[1]]) == 0
    assert cli.main(args + ["--roc", out2[0], "--summary", out2[1]]) == 0
    assert _read(out1[0]) == _read(out2[0])
    assert json.loads(_read(out1[1]))["auc"] == \
        json.loads(_read(out2[1]))["auc"]


def test_detect_sim_stochastic_signal(tmp_path):
    """The stochastic pulse is drawn from each trial's signal stream:
    repeatable, and the AUC of the library call."""
    args = ["detect-sim", "--detector", "IIR_BW1", "--trials", "40",
            "--seed", "5", "--stochastic-signal"]
    runs = []
    for k in (1, 2):
        detector._simulate_block.cache_clear()
        roc, summary = tmp_path / f"roc{k}.csv", tmp_path / f"s{k}.json"
        assert cli.main(args + ["--roc", str(roc),
                                "--summary", str(summary)]) == 0
        runs.append((roc.read_bytes(), summary.read_bytes()))
    assert runs[0] == runs[1]
    auc = detector.run_detection_mc(detector.build_detector("IIR_BW1"), 40,
                                    5, deterministic_signal=False).auc
    assert json.loads(runs[0][1])["auc"] == auc


def test_track_sim_command(tmp_path):
    track = tmp_path / "track.csv"
    orbit = tmp_path / "orbit.csv"
    rc = cli.main(["track-sim", "--tracker", "B", "--seed", "1",
                   "--samples", "800", "--track-csv", str(track),
                   "--orbit-csv", str(orbit)])
    assert rc == 0
    lines = _read(track).strip().splitlines()
    assert lines[0] == "n,truth_x,truth_y,meas_x,meas_y,est_x,est_y"
    assert len(lines) == 801
    orbit_lines = _read(orbit).strip().splitlines()
    assert orbit_lines[0].startswith("f_orb,eps_r_predicted")
    assert len(orbit_lines) == 7  # header + 6 orbit rates


@pytest.mark.parametrize("tracker, samples, minimum", [
    ("D", "150", 196), ("A", "1", 56), ("A", "0", 56)])
def test_track_sim_inside_settling_window_exit_code(tmp_path, capsys,
                                                    tracker, samples,
                                                    minimum):
    """Runs no longer than the settling window used to print
    `rms error = nan` and exit 0 (`--samples 0`: exit 2, "n0 <= n1")."""
    track = tmp_path / "track.csv"
    rc = cli.main(["track-sim", "--tracker", tracker, "--samples", samples,
                   "--track-csv", str(track),
                   "--orbit-csv", str(tmp_path / "orbit.csv")])
    assert rc == 2
    assert f"need at least {minimum} samples" in capsys.readouterr().err
    assert not track.exists()


# ---------------------------------------------------------------------------
# Cold start: which modules each subcommand loads

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(maxflat.__file__)))

#: Runs cli.main on one argument list in a fresh interpreter, with SciPy
#: made unimportable if the second argument says so; prints, as JSON, the
#: exit code, whether scipy.signal was loaded and which maxflat modules.
_CLI_PROBE = """
import json, sys
if sys.argv[2] == "hide-scipy":
    sys.modules["scipy"] = None
from maxflat import cli
try:
    code = cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, 'scipy.signal' in sys.modules,
                  sorted(m for m in sys.modules
                         if m.startswith('maxflat.'))]))
"""

#: The maxflat modules each subcommand loads, beside maxflat.cli.
_DESIGN_MODULES = ["maxflat.butter", "maxflat.design"]
_RESPONSE_MODULES = ["maxflat.analyze", *_DESIGN_MODULES]
_SIM_MODULES = [*_RESPONSE_MODULES, "maxflat.procsim", "maxflat.realize"]


def _loaded(*modules):
    return sorted(["maxflat.cli", *modules])


def _fresh_python(code, *args, cwd):
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe(argv, cwd, hide_scipy=False):
    return _fresh_python(_CLI_PROBE, json.dumps(argv),
                         "hide-scipy" if hide_scipy else "", cwd=cwd)


def test_design_response_and_help_never_load_scipy(tmp_path):
    """design, response and every --help load only butter and design
    (response adds analyze), so they run with SciPy unimportable and
    write the same bytes as with it."""
    runs = [(["design", "--fs", "1000", "--fwb", "0.05", "--fnb", "0.07",
              "--kdc", "3", "--knb", "3", "--kt", "3", "-o", "d.json"],
             _DESIGN_MODULES),
            (["response", "--design", "d.json", "--grid", "64",
              "-o", "r.csv"], _RESPONSE_MODULES)]
    for hide_scipy in (False, True):
        cwd = tmp_path / ("hidden" if hide_scipy else "normal")
        cwd.mkdir()
        for argv, modules in runs:
            assert _probe(argv, cwd, hide_scipy) == \
                [0, False, _loaded(*modules)]
    for name in ("d.json", "r.csv"):
        assert (tmp_path / "hidden" / name).read_bytes() == \
            (tmp_path / "normal" / name).read_bytes()
    for sub in ([], ["design"], ["response"], ["detect-sim"], ["track-sim"]):
        assert _probe([*sub, "--help"], tmp_path, hide_scipy=True) == \
            [0, False, _loaded(*_DESIGN_MODULES)]
    code = """
import json, sys
sys.modules["scipy"] = None
try:
    from maxflat import realize
except ImportError as exc:
    print(json.dumps(str(exc)))
"""
    assert "SciPy cannot be imported" in _fresh_python(code, cwd=tmp_path)


def test_detect_and_track_sim_never_load_scipy(tmp_path):
    """The filtering subcommands load only the compiled kernel of lfilter,
    never the scipy.signal package around it, and each study leaves the
    other's module unloaded."""
    assert _probe(["detect-sim", "--detector", "IIR_BW1", "--trials", "2"],
                  tmp_path) == \
        [0, False, _loaded(*_SIM_MODULES, "maxflat.detector")]
    assert _probe(["track-sim", "--tracker", "B", "--samples", "200"],
                  tmp_path) == \
        [0, False, _loaded(*_SIM_MODULES, "maxflat.tracker")]


def test_import_design_and_response_never_load_numpy_random(tmp_path):
    """Only the simulations draw random numbers, so only they pay for
    loading numpy.random, about 16 ms in a fresh process; import maxflat
    alone loads no submodule and not even NumPy."""
    code = """
import json, sys
import maxflat
out = [sorted(m for m in sys.modules
              if m == 'numpy' or m.startswith(('numpy.', 'maxflat.')))]
from maxflat import cli
for argv in json.loads(sys.argv[1]):
    out.append([cli.main(argv), 'numpy.random' in sys.modules])
print(json.dumps(out))
"""
    runs = [["design", "--fs", "1000", "--fwb", "0.05", "--fnb", "0.07",
             "--kdc", "3", "--knb", "3", "--kt", "3", "-o", "d.json"],
            ["response", "--design", "d.json", "--grid", "64",
             "-o", "r.csv"]]
    assert _fresh_python(code, json.dumps(runs), cwd=tmp_path) == \
        [[], [0, False], [0, False]]


def test_package_names_resolve_without_scipy(tmp_path):
    """import maxflat leaves scipy.signal unloaded; every name of __all__
    and every submodule resolves, to the object its module defines, and
    so does *."""
    code = """
import json, sys
import maxflat
cold = 'scipy.signal' in sys.modules
homes = {}
for name in maxflat.__all__:
    value = getattr(maxflat, name)
    homes[name] = getattr(sys.modules[value.__module__], name) is value
ns = {}
exec('from maxflat import *', ns)
modules = [getattr(maxflat, m).__name__
           for m in ("realize", "procsim", "detector", "tracker")]
print(json.dumps([cold, homes, sorted(set(maxflat.__all__) - set(ns)),
                  sorted(set(maxflat.__all__) - set(dir(maxflat))),
                  modules, maxflat.__version__]))
"""
    cold, homes, missing_star, missing_dir, modules, version = _fresh_python(
        code, cwd=tmp_path)
    assert cold is False
    assert homes == dict.fromkeys(maxflat.__all__, True)
    assert missing_star == [] and missing_dir == []
    assert modules == ["maxflat.realize", "maxflat.procsim",
                       "maxflat.detector", "maxflat.tracker"]
    assert version == "1.0.0"


def test_public_functions_are_plain_functions():
    """Every callable of __all__ that is not a class is a plain Python
    function.  bench/spans.py's tracer wraps only those, so a public
    function behind functools.cache or lru_cache would drop out of every
    per-layer metric without a sign."""
    names = [name for name in maxflat.__all__
             if callable(getattr(maxflat, name))
             and not inspect.isclass(getattr(maxflat, name))]
    assert names
    assert [name for name in names
            if not inspect.isfunction(getattr(maxflat, name))] == []


# ---------------------------------------------------------------------------
# Exit codes


@pytest.mark.parametrize("argv, tags", [
    (["detect-sim", "--detector", "NOPE", "--trials", "1",
      "--roc", "r.csv", "--summary", "s.json"], detector.DETECTOR_TAGS),
    (["track-sim", "--tracker", "NOPE", "--track-csv", "t.csv",
      "--orbit-csv", "o.csv"], tuple(tracker.TRACKER_CONFIGS)),
])
def test_unknown_tag_exit_code_lists_tags(tmp_path, monkeypatch, capsys,
                                          argv, tags):
    """Both the error and the subcommand's --help list every supported
    tag."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "NOPE" in err
    assert all(tag in err for tag in tags)
    assert not list(tmp_path.iterdir())
    with pytest.raises(SystemExit):
        cli.main([argv[0], "--help"])
    out = capsys.readouterr().out
    assert all(tag in out for tag in tags)


@pytest.mark.parametrize("argv", [
    ["detect-sim", "--detector", "IIR_BW1", "--trials", "1",
     "--roc", "r.csv", "--summary", "s.json"],
    ["track-sim", "--tracker", "A", "--samples", "1000",
     "--track-csv", "t.csv", "--orbit-csv", "o.csv"],
])
def test_negative_seed_exit_code(tmp_path, monkeypatch, capsys, argv):
    """Both simulation subcommands share one seed rule."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--seed", "-1"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::maxflat.design.IllConditionedSystem")
def test_design_order_past_int64_alpha_exit_code(tmp_path, capsys):
    """K = 22 used to end in an OverflowError traceback from the int64
    derivative table; it now reaches the solver, which rejects it."""
    rc = cli.main(["design", "--kdc", "22", "--kt", "1", "--q", "5",
                   "-o", str(tmp_path / "d.json")])
    assert rc == 3
    assert "degenerate constraint set" in capsys.readouterr().err


_BW1_FLAGS = ["--fs", "1000", "--fwb", "0.05", "--fnb", "0.07", "--knb", "3",
              "--kt", "3"]


@pytest.mark.filterwarnings("ignore::maxflat.design.IllConditionedSystem")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flags, message", [
    (_BW1_FLAGS + ["--kdc", "13"],
     "pole count must equal the constraint count K"),
    (_BW1_FLAGS + ["--kdc", "14"],
     "transfer coefficients have imaginary residue"),
    (["--q", "1e200"], "dc constraint target (-q)^k_w (1/T_s)^k_t overflows"),
    (["--fs", "1e-200"], "(-1/omega_c^2)^K is out of floating-point range"),
    (["--fs", "1e300"], "(-1/omega_c^2)^K is out of floating-point range"),
    (["--noncausal", "--kdc", "4", "--kt", "1", "--q", "0", "--fs", "1e100"],
     "np.roots found 0 of the 4 Butterworth poles"),
    (["--q", "1e150"], "white-noise gain C^H S C overflows"),
], ids=["13-pole count must equal the constraint count K",
        "14-transfer coefficients have imaginary residue",
        "q-1e200", "fs-1e-200", "fs-1e300", "noncausal-fs-1e100", "q-1e150"])
def test_numerical_failure_of_valid_spec_exit_code(tmp_path, capsys, flags,
                                                   message):
    """Valid specs whose numerics fail used to exit 2 like invalid ones:
    at K = 19 np.roots puts a Butterworth pole across the imaginary axis,
    and at K = 20 the expansion leaves an imaginary residue.  A delay of
    1e200 overflowed the dc targets, and F_s of 1e-200 or 1e300 the
    Butterworth polynomial, in OverflowError and ZeroDivisionError
    tracebacks.  At F_s of 1e100 a two-sided design found no Butterworth
    poles and exited 2, and a delay of 1e150 printed overflow
    RuntimeWarnings from the white-noise gain."""
    out = tmp_path / "d.json"
    rc = cli.main(["design", *flags, "-o", str(out)])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_validation_error_exit_code(tmp_path, capsys):
    rc = cli.main(["design", "--kdc", "1", "--kt", "3",
                   "-o", str(tmp_path / "d.json")])
    assert rc == 2
    assert "K_w_dc >= K_t violated" in capsys.readouterr().err


def _show_warning(message, category, filename, lineno, file=None,
                  line=None):
    """Python's own way to show a warning, which pytest's warning capture
    replaces: the formatted warning on stderr."""
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


@pytest.mark.parametrize("flags, category, line", [
    (["--kdc", "12", "--kt", "3", "--fs", "1"], IllConditionedSystem,
     "warning: IllConditionedSystem: ill-conditioned constraint system: "
     "condition estimate "),
    (["--kdc", "1", "--kt", "1"], UserWarning,
     "warning: UserWarning: delay-independent WNG — any q admissible; "
     "returning 0\n"),
], ids=["ill-conditioned", "delay-independent"])
def test_design_warning_prints_as_one_line(tmp_path, capsys, flags,
                                           category, line):
    """A design that warns exits 0 and prints its warning as one stderr
    line, without the source path and the echoed warnings.warn line of
    Python's format; a caller that records warnings still gets the
    warning object, and the format is Python's again after the call."""
    argv = ["design", *flags, "-o", str(tmp_path / "d.json")]
    formatwarning = warnings.formatwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        assert cli.main(argv) == 0
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1, err
    assert warnings.formatwarning is formatwarning
    with pytest.warns(category):
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags, message", [
    (["--q", "nan"], "group_delay must be a finite number"),
    (["--fs", "nan"], "F_s must be a finite number"),
])
def test_non_finite_flag_exit_code(tmp_path, capsys, flags, message):
    """`--q nan` used to exit 0 with NaN coefficients, `--fs nan` exit 3
    with a LinAlgError."""
    out = tmp_path / "d.json"
    rc = cli.main(["design", *flags, "-o", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("group_delay_smp", float("inf"), "group_delay must be a finite number"),
    ("k_t", 2.5, "K_t must be an integer"),
    ("k_t", True, "K_t must be an integer, got True"),
    ("causal", "no", "causal must be a bool, got 'no'"),
])
def test_invalid_config_value_exit_code(tmp_path, capsys, key, value,
                                        message):
    """An infinite delay used to exit 0 with NaN coefficients, a
    non-integral K_t to end in a TypeError traceback; a boolean K_t and
    a causal flag of "no" were taken as 1 and as a causal design."""
    cfg = cli.spec_to_config(DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07,
                                        k_w_dc=3, k_w_nb=1, k_t=2))
    cfg[key] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "d.json"
    rc = cli.main(["design", "--config", str(path), "-o", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


#: A well-formed causal design file of one pole and one output.
_BANK = {"q_smp": 0.0, "poles_re_im": [[0.5, 0.0]], "c_re_im": [[[0.5, 0.0]]],
         "a": [1.0, -0.5], "b": [[0.5, 0.0]], "sigma": [[1 / 3]],
         "ts_sec": 1.0}


#: The refusal of a design file whose response overflows.
_OVERFLOW = ("design file: the response is not finite on the grid: a pole "
             "lies on the unit circle, or ts_sec, a or b is so far out of "
             "range that it overflows")


#: The design file of BW1, the README's design.
_BW1 = cli.design_to_payload(DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07,
                                        k_w_dc=3, k_w_nb=3, k_t=3))


def test_small_design_file_is_well_formed(tmp_path):
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(_BANK))
    assert cli.main(["response", "--design", str(path), "--grid", "4",
                     "-o", str(tmp_path / "r.csv")]) == 0


@pytest.mark.parametrize("command, document, message", [
    ("design", [1, 2], "design config must be a JSON object, got [1, 2]"),
    ("design", None, "design config must be a JSON object, got null"),
    ("design", {"fs_hz": 1000},
     "design config lacks required keys: f_wb_cyc_per_smp, k_w_dc, k_t"),
    ("response", [1], "design file must be a JSON object, got [1]"),
    ("response", None, "design file must be a JSON object, got null"),
    ("response", {"q_smp": 3.0},
     "design file lacks required keys: poles_re_im, c_re_im, a, b, sigma, "
     "ts_sec"),
    ("response", dict(_BANK, poles_re_im=5),
     "design file: poles_re_im must be K >= 1 finite [re, im] pairs, got 5"),
    ("response", dict(_BANK, b=[]),
     "design file: b must be 1 rows of 2 finite numbers, got []"),
    ("response", dict(_BANK, ts_sec=None),
     "design file: ts_sec must be a finite positive number, got null"),
    ("response", dict(_BANK, poles_re_im=[[1.0, 0.0]], a=[1.0, -1.0]),
     "design file: the response is not finite on the grid"),
    ("response", dict(_BANK, a=[0.0, -0.5]),
     "design file: a must be monic (a[0] = 1), got [0.0, -0.5]"),
    ("response", dict(_BW1, ts_sec=1e-300), _OVERFLOW),
    ("response", dict(_BW1, b=[[1e308, 1e308] + _BW1["b"][0][2:]]
                      + _BW1["b"][1:]), _OVERFLOW),
], ids=["config-array", "config-null", "config-missing-keys",
        "design-array", "design-null", "design-missing-keys",
        "design-poles-not-pairs", "design-empty-b", "design-null-ts",
        "design-unit-circle-pole", "design-non-monic-a", "design-tiny-ts",
        "design-huge-b"])
@pytest.mark.filterwarnings("error")
def test_malformed_design_file_exit_code(tmp_path, capsys, command,
                                         document, message):
    """A config that is not an object ended in a TypeError traceback, one
    without a required key in DesignSpec's "missing 3 required positional
    arguments"; a design file of [1] in a TypeError traceback, and so did
    poles that are not pairs and a null ts_sec, while an empty b ended in
    an IndexError traceback.  A pole on the unit circle wrote inf and nan
    rows after two RuntimeWarnings, and a non-monic a wrote the response
    of a filter that run_filter refuses, both with exit code 0.  BW1's
    file with a T_s of 1e-300 or two b entries of 1e308 printed overflow
    RuntimeWarnings before its error."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(document))
    flag = "--config" if command == "design" else "--design"
    out = tmp_path / "out"
    rc = cli.main([command, flag, str(path), "-o", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exit_code(tmp_path):
    rc = cli.main(["design", "--config", str(tmp_path / "absent.json"),
                   "-o", str(tmp_path / "d.json")])
    assert rc == 2


def test_numerical_error_exit_code(tmp_path, monkeypatch, capsys):
    def boom(spec):
        raise NumericalError("degenerate constraint set: solve residual "
                             "1.0e+00 exceeds 1.0e-08")
    monkeypatch.setattr(cli, "design_to_payload", boom)
    rc = cli.main(["design", "-o", str(tmp_path / "d.json")])
    assert rc == 3
    assert "degenerate" in capsys.readouterr().err


def test_degenerate_narrowband_frequency_exit_code(tmp_path, capsys):
    """f_nb one ulp below Nyquist puts the narrowband block at pi."""
    rc = cli.main(["design", "--fs", "1", "--fwb", "0.3",
                   "--fnb", "0.49999999999999994", "--kdc", "2", "--knb",
                   "1", "--kt", "1", "--q", "0",
                   "-o", str(tmp_path / "d.json")])
    assert rc == 3
    assert "degenerate narrowband frequency" in capsys.readouterr().err


def test_linalg_error_exit_code(tmp_path, monkeypatch):
    def boom(spec):
        raise np.linalg.LinAlgError("singular matrix")
    monkeypatch.setattr(cli, "design_to_payload", boom)
    assert cli.main(["design", "-o", str(tmp_path / "d.json")]) == 3
