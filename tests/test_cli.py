"""Command-line interface: exit codes, serialization round trips, outputs."""

import json

import numpy as np
import pytest

from maxflat import cli
from maxflat.design import DesignSpec, NumericalError


def _read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Serialization helpers


def test_float_serialization_round_trips_exactly():
    values = [0.1, 1.0 / 3.0, 12.389488083396317, -1e-300, 2.0 ** -52]
    s = cli.dumps_json({"v": values})
    back = json.loads(s)["v"]
    assert back == values  # bit-exact through 17 significant digits


def test_spec_config_round_trip():
    spec = DesignSpec(f_s=250.0, f_wb=0.04, f_nb=0.09, k_w_dc=4, k_w_nb=2,
                      k_w_pi=1, k_t=2, group_delay=3.5)
    assert cli.spec_from_config(cli.spec_to_config(spec)) == spec


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
    assert d.q == bw1_design.q


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


def test_noncausal_design_command(tmp_path):
    out = tmp_path / "nc.json"
    rc = cli.main(["design", "--fwb", "0.05", "--fnb", "0.07", "--kdc", "4",
                   "--knb", "2", "--kt", "1", "--q", "0", "--noncausal",
                   "-o", str(out)])
    assert rc == 0
    payload = json.loads(_read(out))
    assert "forward" in payload and "backward" in payload


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


# ---------------------------------------------------------------------------
# Exit codes


def test_validation_error_exit_code(tmp_path, capsys):
    rc = cli.main(["design", "--kdc", "1", "--kt", "3",
                   "-o", str(tmp_path / "d.json")])
    assert rc == 2
    assert "K_w_dc >= K_t violated" in capsys.readouterr().err


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
])
def test_invalid_config_value_exit_code(tmp_path, capsys, key, value,
                                        message):
    """An infinite delay used to exit 0 with NaN coefficients, a
    non-integral K_t to end in a TypeError traceback."""
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
