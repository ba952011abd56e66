"""Command-line front end: formats, determinism, exit codes, config."""

import json
import math
import sys

import numpy as np
import pytest

from gravharm import (SHECoefficients, SnowmanParams, load_spma,
                      snowman_descends_to_topography)
from gravharm.cli import main

from conftest import unit_ball_grid


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def snowman_file(tmp_path):
    path = tmp_path / "snow.spma"
    a = 4.0 * math.pi * (1.5**3 / 3.0 - 1.5**5 / (5.0 * 1.5**2))
    amp = 1.0 / a                      # unit mass per component
    path.write_text("1 0 0 1.5 quadratic_bump %r\n-1 0 0 1.5 quadratic_bump %r\n"
                    % (amp, amp))
    return path


@pytest.fixture()
def origin_mass_file(tmp_path):
    path = tmp_path / "pm.txt"
    path.write_text("# single mass at the origin\n0 0 0 2.0\n")
    return path


# ---------------------------------------------------------------------------
# coeffs

def test_coeffs_snowman_c00_is_one(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--snowman-gamma", 0.5, "--out", out]) == 0
    c = SHECoefficients.load(out)
    assert c.get(0, 0) == 1.0
    assert "wrote" in capsys.readouterr().out


def test_coeffs_origin_mass_single_row(tmp_path, origin_mass_file):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--points", origin_mass_file, "--R", 1.0,
                "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,m,C"
    assert len(lines) == 3 and lines[2].startswith("0,0,1")


def test_coeffs_dual_path_agreement(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--snowman-gamma", 0.5, "--n-max", 24,
                "--threshold", 0, "--out", out, "--dual-path"]) == 0
    ca = SHECoefficients.load(out)
    cq = SHECoefficients.load(str(out) + ".quad")
    assert np.max(np.abs(ca.coeffs - cq.coeffs)) < 1e-10


def test_coeffs_requires_exactly_one_model(tmp_path, origin_mass_file):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--out", out]) == 2
    assert run(["coeffs", "--points", origin_mass_file,
                "--snowman-gamma", 0.5, "--out", out]) == 2


def test_coeffs_missing_out_is_validation_error(capsys):
    assert run(["coeffs", "--snowman-gamma", 0.5]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["1 2 3", "0 0 0 x", "0 0 0 -1", "0 0 0 inf",
                                  "0 nan 0 1"],
                         ids=["missing-field", "non-numeric", "negative-mass",
                              "infinite-mass", "nonfinite-position"])
def test_point_mass_file_errors_carry_line_numbers(tmp_path, capsys, line):
    path = tmp_path / "pm.txt"
    path.write_text("0 0 0 1\n%s\n" % line)
    assert run(["coeffs", "--points", path, "--out", tmp_path / "c.csv"]) == 2
    assert ":2:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# descent

def test_descent_snowman_above_threshold(capsys):
    assert run(["descent", "snowman", "--gamma", 0.5, "--n-max", 200,
                "--directions", 16]) == 0
    out = capsys.readouterr().out
    assert "descends=true" in out
    assert "waist=1.1180" in out


def test_descent_snowman_below_threshold(capsys):
    assert run(["descent", "snowman", "--gamma", 0.3, "--n-max", 200,
                "--directions", 16]) == 0
    assert "descends=false" in capsys.readouterr().out


def test_descent_spma_with_csv(tmp_path, snowman_file, capsys):
    csv = tmp_path / "rc.csv"
    assert run(["descent", "spma", "--file", snowman_file, "--eps", 0.3,
                "--n-max", 200, "--directions", 8, "--out", csv]) == 0
    assert "descends=true" in capsys.readouterr().out
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("direction_index,theta,phi,rc_estimate")
    assert len(lines) == 9


@pytest.mark.parametrize("subject", ["snowman", "spma"])
def test_descent_csv_is_the_rc_csv_of_its_one_fit(tmp_path, snowman_file,
                                                  monkeypatch, subject):
    # `descent --out` writes the fits behind its verdict: the same CSV as
    # `rc --out`, from a single coefficient computation
    if subject == "snowman":
        descent = ["descent", "snowman", "--gamma", 0.5]
        rc = ["rc", "--snowman-gamma", 0.5]
    else:
        descent = ["descent", "spma", "--file", snowman_file, "--eps", 0.3]
        rc = ["rc", "--spma", snowman_file]
    opts = ["--n-max", 120, "--directions", 8, "--out"]
    calls = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "coeffs_from_point_masses", None)
        if name.startswith("gravharm") and original is not None:
            def counted(*a, _original=original, **kw):
                calls.append(a)
                return _original(*a, **kw)
            monkeypatch.setattr(module, "coeffs_from_point_masses", counted)
    a, b = tmp_path / "descent.csv", tmp_path / "rc.csv"
    assert run(descent + opts + [a]) == 0
    assert len(calls) == 1
    assert run(rc + opts + [b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_descent_spma_requires_file_and_eps():
    assert run(["descent", "spma"]) == 2


# ---------------------------------------------------------------------------
# approximate

def test_approximate_round_trip(tmp_path):
    grid = tmp_path / "ball.grid"
    unit_ball_grid(16).save(grid)
    out, rep = tmp_path / "out.spma", tmp_path / "rep.json"
    assert run(["approximate", "--density", grid, "--delta", 0.7,
                "--eps", 0.7, "--out", out, "--report", rep]) == 0
    report = json.loads(rep.read_text())
    for key in ("p1", "p2", "p3", "p4", "p5", "p6", "p7"):
        assert report[key]["pass"]
    spma = load_spma(out)
    assert len(spma) == report["summary"]["components"]
    # determinism: a second run writes byte-identical outputs
    out2, rep2 = tmp_path / "out2.spma", tmp_path / "rep2.json"
    assert run(["approximate", "--density", grid, "--delta", 0.7,
                "--eps", 0.7, "--out", out2, "--report", rep2]) == 0
    assert out2.read_bytes() == out.read_bytes()
    assert rep2.read_bytes() == rep.read_bytes()


def test_approximate_unachievable_budget(tmp_path, capsys):
    grid = tmp_path / "ball.grid"
    unit_ball_grid(16).save(grid)
    assert run(["approximate", "--density", grid, "--delta", 1e-9,
                "--eps", 1e-9, "--out", tmp_path / "o.spma",
                "--report", tmp_path / "r.json"]) == 3
    assert "budget" in capsys.readouterr().err


def test_approximate_missing_options(tmp_path):
    assert run(["approximate", "--density", tmp_path / "x.grid"]) == 2


# ---------------------------------------------------------------------------
# potential

def test_potential_ray_csv(tmp_path, snowman_file):
    out = tmp_path / "pot.csv"
    assert run(["potential", "--spma", snowman_file, "--direction", "0,0,1",
                "--r-from", 1.6, "--r-to", 2.4, "--samples", 5,
                "--n-max", 150, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,V_exact,V_partial_sum_N,V_oracle"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        v_exact, v_partial = float(cells[3]), float(cells[4])
        assert v_partial == pytest.approx(v_exact, rel=1e-6)


def test_potential_error_marker_at_singularity(tmp_path, origin_mass_file):
    out = tmp_path / "pot.csv"
    # the ray starts exactly at the origin mass: marker, run continues
    assert run(["potential", "--points", origin_mass_file,
                "--direction", "0,0,1", "--r-from", 0, "--r-to", 2,
                "--samples", 3, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[3] == "ERROR"
    assert lines[3].split(",")[3] != "ERROR"


def test_potential_requires_range(snowman_file):
    assert run(["potential", "--spma", snowman_file]) == 2


# ---------------------------------------------------------------------------
# rc

def test_rc_single_mass(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    pm.write_text("0 0 0.8 2.0\n")
    assert run(["rc", "--points", pm, "--n-max", 200,
                "--window", "50,200", "--directions", 32]) == 0
    out = capsys.readouterr().out
    rc = float(out.split("Rc=")[1])
    assert rc == pytest.approx(0.8, rel=0.02)


def test_rc_origin_mass_is_validation_error(origin_mass_file, capsys):
    # no expansion to analyze: the reference radius degenerates to zero
    assert run(["rc", "--points", origin_mass_file, "--n-max", 100,
                "--directions", 8]) == 2
    assert "origin" in capsys.readouterr().err


def test_descent_all_inconclusive_exit_code(tmp_path, capsys):
    # radially symmetric array: every direction inconclusive, exit 3
    spma = tmp_path / "sym.spma"
    spma.write_text("0 0 0 1 quadratic_bump 1\n")
    assert run(["descent", "spma", "--file", spma, "--eps", 0.5,
                "--n-max", 100, "--directions", 8]) == 3
    assert "inconclusive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# snowman-scan

def test_snowman_scan_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["snowman-scan", "--gamma-from", 0.2, "--gamma-to", 0.8,
                    "--steps", 13, "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "gamma,waist_radius,descends"
    assert len(lines) == 14


@pytest.mark.parametrize("gamma", [0.3, math.sqrt(2.0) - 1.0, 0.5])
def test_snowman_scan_verdict_is_the_descent_verdict(gamma, capsys):
    assert run(["snowman-scan", "--gamma-from", gamma,
                "--gamma-to", gamma + 1.0, "--steps", 2]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[0]) == gamma
    rep = snowman_descends_to_topography(SnowmanParams(gamma), n_max=60, k=8)
    assert row[2] == str(rep.descends).lower()


def test_snowman_scan_bisect_brackets_threshold(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(["snowman-scan", "--gamma-from", 0.3, "--gamma-to", 0.5,
                "--steps", 3, "--bisect", "--tol", 1e-8, "--out", out]) == 0
    tail = out.read_text().splitlines()[-1]
    lo = float(tail.split("threshold_low=")[1].split()[0])
    hi = float(tail.split("threshold_high=")[1])
    assert hi - lo <= 1e-8
    assert lo <= math.sqrt(2.0) - 1.0 <= hi


def test_snowman_scan_no_sign_change(tmp_path):
    assert run(["snowman-scan", "--gamma-from", 0.5, "--gamma-to", 0.8,
                "--bisect", "--out", tmp_path / "s.csv"]) == 3


def test_snowman_scan_range_validation():
    assert run(["snowman-scan", "--gamma-from", 0.8, "--gamma-to", 0.2]) == 2


# ---------------------------------------------------------------------------
# config files

def test_config_supplies_defaults(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"gamma_from": 0.2, "gamma_to": 0.6,
                                "steps": 3}))
    assert run(["--config", conf, "snowman-scan"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4


def test_config_flags_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"gamma_from": 0.2, "gamma_to": 0.6,
                                "steps": 3}))
    assert run(["--config", conf, "snowman-scan", "--steps", 5]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_config_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"gamma_frm": 0.2}))
    assert run(["--config", conf, "snowman-scan"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_with_descent_positional(tmp_path, capsys):
    # the subcommand's positional must not be demanded again when the
    # config defaults are read
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"gamma": 0.3, "n_max": 60, "directions": 8}))
    assert run(["--config", conf, "descent", "snowman"]) == 0
    fields = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert float(fields["R"]) == pytest.approx(2.3)
    assert fields["descends"] == "false"


def test_config_with_rc(tmp_path, capsys):
    pm = tmp_path / "pm.txt"
    pm.write_text("0 0 0.8 2.0\n")
    csv = tmp_path / "rc.csv"
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n_max": 120, "directions": 8,
                                "window": "30,120", "out": str(csv)}))
    assert run(["--config", conf, "rc", "--points", pm]) == 0
    rc = float(capsys.readouterr().out.split("Rc=")[1])
    assert rc == pytest.approx(0.8, rel=0.02)
    assert len(csv.read_text().splitlines()) == 1 + 8
