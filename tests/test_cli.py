"""Command-line front end: formats, determinism, exit codes, config."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gravharm import (PointMass, PointMasses, SHECoefficients, SnowmanParams,
                      build_snowman, coeffs_from_point_masses, load_spma,
                      snowman_descends_to_topography)
from gravharm import cli
from gravharm.cli import load_point_masses, main

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


@pytest.fixture()
def two_mass_file(tmp_path):
    path = tmp_path / "pm2.txt"
    path.write_text("0 0 0.5 2.0\n0.4 0 0 1.0\n")
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


def test_coeffs_dual_path_scales_both_files_with_g(tmp_path, two_mass_file):
    out = tmp_path / "c.csv"
    assert run(["coeffs", "--points", two_mass_file, "--n-max", 16, "--G", 2,
                "--out", out, "--dual-path"]) == 0
    ca = SHECoefficients.load(out)
    cq = SHECoefficients.load(str(out) + ".quad")
    assert ca.GM == 6.0
    assert abs(cq.GM - ca.GM) < 1e-10


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


def test_point_mass_file_builds_the_array_record(tmp_path, monkeypatch):
    def no_objects(self):
        raise AssertionError("a PointMass object was built")

    monkeypatch.setattr(PointMass, "__post_init__", no_objects)
    path = tmp_path / "pm.txt"
    path.write_text("# two masses\n0 0 1 2\n\n1 0 0 0.5\n")
    pms = load_point_masses(path)
    assert isinstance(pms, PointMasses)
    assert np.array_equal(pms.positions, [[0, 0, 1], [1, 0, 0]])
    assert np.array_equal(pms.masses, [2.0, 0.5])
    assert len(build_snowman(SnowmanParams(0.5)).as_point_masses()) == 2


N_MAX = "--n-max must be non-negative, got -1"


@pytest.mark.parametrize("argv, name", [
    (["coeffs", "--snowman-gamma", 0.5, "--n-max", -1, "--out", "c.csv"],
     N_MAX),
    (["coeffs", "--snowman-gamma", 0.5, "--n-max", 8, "--dual-path",
      "--oversample", -20, "--out", "c.csv"],
     "--oversample must be non-negative, got -20"),
    (["rc", "--snowman-gamma", 0.5, "--n-max", -1], N_MAX),
    (["descent", "snowman", "--n-max", -1], N_MAX),
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", 4,
      "--samples", 2, "--n-max", -1], N_MAX),
], ids=["coeffs", "coeffs-oversample", "rc", "descent-snowman", "potential"])
def test_negative_degree_arguments_name_the_parameter(tmp_path, monkeypatch,
                                                      capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert name in capsys.readouterr().err
    assert not os.listdir(tmp_path)           # no output file written


def _python(args, cwd=None):
    """A fresh interpreter run with this gravharm on its path."""
    import gravharm
    src = os.path.dirname(os.path.dirname(os.path.abspath(gravharm.__file__)))
    return subprocess.run([sys.executable] + [str(a) for a in args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)


def test_importing_the_cli_loads_no_scipy():
    # coeffs, rc, descent and snowman-scan use no scipy: importing it
    # lazily keeps their start-up short
    out = _python(["-c", "import sys, gravharm.cli; print(sorted("
                   "m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    assert out.returncode == 0
    assert out.stdout.strip() == "[]"


def test_the_entry_point_exits_with_the_code_of_main(tmp_path):
    bad = _python(["-m", "gravharm.cli", "coeffs", "--snowman-gamma", 0.5,
                   "--G", "inf", "--out", "c.csv"], cwd=tmp_path)
    assert bad.returncode == 2
    assert "--G must be positive and finite" in bad.stderr
    assert bad.stdout == "" and not os.listdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps({"steps": 2.5}))
    bad = _python(["-m", "gravharm.cli", "--config", "conf.json",
                   "snowman-scan", "--gamma-from", 0.2, "--gamma-to", 0.6],
                  cwd=tmp_path)
    assert bad.returncode == 2
    assert "config key steps" in bad.stderr and bad.stdout == ""


@pytest.mark.parametrize("command", sorted(cli._parser().subcommands))
def test_every_subcommand_prints_its_help(command):
    # each flag's type and choices render in the help
    done = _python(["-m", "gravharm.cli", command, "--help"])
    assert done.returncode == 0
    assert done.stdout.startswith("usage: gravharm %s" % command)


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


def test_approximate_warns_on_a_failed_a_condition(tmp_path, capsys):
    # the 16^3 unit ball at delta = eps = 0.7 fails a7 (worst_excess 0.11)
    # and passes every other a-condition and the extremal check
    grid = tmp_path / "ball.grid"
    unit_ball_grid(16).save(grid)
    rep = tmp_path / "rep.json"
    assert run(["approximate", "--density", grid, "--delta", 0.7,
                "--eps", 0.7, "--out", tmp_path / "out.spma",
                "--report", rep]) == 0
    a7 = json.loads(rep.read_text())["a7"]
    assert not a7["pass"]
    captured = capsys.readouterr()
    assert captured.out.startswith("wrote ")
    assert captured.err.splitlines() == [
        "warning: a7 fails: worst_excess=%g worst_excess_component_alone=%g "
        "balls_checked=%d balls_total=%d"
        % (a7["worst_excess"], a7["worst_excess_component_alone"],
           a7["balls_checked"], a7["balls_total"])]


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


def _ray(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [[float(c) if c not in ("", "ERROR") else c for c in row]
            for row in rows]


def test_potential_g_scales_every_column(tmp_path, two_mass_file,
                                         snowman_file):
    for model, oracle in (["--points", two_mass_file], []), \
            (["--spma", snowman_file], ["--oracle-resolution", 32]):
        ray = {}
        for G in (1, 2):
            out = tmp_path / ("pot%d.csv" % G)
            assert run(["potential", *model, "--G", G, "--r-from", 2.5,
                        "--r-to", 3, "--samples", 3, "--n-max", 60,
                        *oracle, "--out", out]) == 0
            ray[G] = _ray(out)
        for one, two in zip(ray[1], ray[2]):
            assert two[4] == pytest.approx(two[3], rel=1e-6)
            assert two[3] == pytest.approx(2.0 * one[3], rel=1e-15)
            if oracle:
                assert two[5] == pytest.approx(2.0 * one[5], rel=1e-15)
                assert two[5] == pytest.approx(two[3], rel=1e-2)
            else:
                assert two[5] == ""


def test_potential_runs_the_oracle_once_for_the_whole_ray(
        tmp_path, snowman_file, monkeypatch):
    # one voxelization per command; rows the oracle cannot reach (here
    # inside the support) are marked without calling it
    calls = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "potential_oracle", None)
        if name.startswith("gravharm") and original is not None:
            def counted(density, x, *a, _original=original, **kw):
                calls.append(len(x))
                return _original(density, x, *a, **kw)
            monkeypatch.setattr(module, "potential_oracle", counted)
    out = tmp_path / "pot.csv"
    assert run(["potential", "--spma", snowman_file, "--r-from", 0,
                "--r-to", 3, "--samples", 7, "--n-max", 60,
                "--oracle-resolution", 32, "--out", out]) == 0
    oracle = [row[5] for row in _ray(out)]
    assert calls == [sum(v != "ERROR" for v in oracle)]
    assert oracle[:4] == ["ERROR"] * 4 and "ERROR" not in oracle[4:]


def test_potential_series_of_origin_masses_is_gm_over_r(tmp_path):
    # at the origin every degree above 0 vanishes, so the series is GM/r
    # to the last bit (GM = 2: the product by 1/r is exact)
    path = tmp_path / "origin.txt"
    path.write_text("0 0 0 1\n0 0 0 1\n")
    out = tmp_path / "pot.csv"
    assert run(["potential", "--points", path, "--direction", "0.3,1,1",
                "--r-from", 0, "--r-to", 3, "--samples", 31, "--n-max", 50,
                "--out", out]) == 0
    ray = _ray(out)
    assert ray[0][4] == "ERROR"
    for r, row in zip(np.linspace(0, 3, 31)[1:], ray[1:]):
        assert row[4] == 2.0 / r


def test_potential_series_matches_the_coefficient_path(tmp_path,
                                                       two_mass_file):
    from gravharm import Direction, evaluate_partial_sum
    out = tmp_path / "pot.csv"
    assert run(["potential", "--points", two_mass_file, "--direction",
                "1,-2,0.5", "--r-from", 0.6, "--r-to", 3, "--samples", 9,
                "--n-max", 80, "--out", out]) == 0
    d = np.array([1.0, -2.0, 0.5])
    d /= np.linalg.norm(d)
    masses = load_point_masses(two_mass_file)
    c = coeffs_from_point_masses(masses, 0.5, 80)
    expect = evaluate_partial_sum(c, 80, np.linspace(0.6, 3, 9),
                                  Direction.from_vector(d))
    got = np.array([row[4] for row in _ray(out)])
    assert np.allclose(got, expect, rtol=1e-14, atol=0)


def test_potential_requires_range(snowman_file):
    assert run(["potential", "--spma", snowman_file]) == 2


# ---------------------------------------------------------------------------
# bad inputs

@pytest.mark.parametrize("argv, grid, message", [
    (["rc", "--snowman-gamma", 0.5, "--window", "50"], None, "--window"),
    (["rc", "--snowman-gamma", 0.5, "--window", "50,x"], None, "--window"),
    # the filling runs on the density's own grid with a fixed sub-step
    # floor; the flags that changed either are gone
    *[(["approximate", flag, v], "ok",
       "unrecognized arguments: %s %s" % (flag, v))
      for flag, v in (("--resolution", 1), ("--resolution", -5),
                      ("--min-ball-radius", -0.1),
                      ("--min-ball-radius", "inf"))],
    (["approximate"], "2 2 x 1 0 0 0\n1 1 1 1\n", "ball.grid:1:"),
    (["approximate"], "2 2 2 1 0 0\n1 1 1 1\n", "ball.grid:1:"),
    (["approximate"], "2 2 2 1 0 0 0\n1 1 1 1\n1 1 x 1\n", "ball.grid:3:"),
    (["approximate"], "2 2 2 0 0 0 0\n1 1 1 1\n1 1 1 1\n",
     "ball.grid:1: grid spacing"),
    (["approximate"], "2 2 2 1 0 nan 0\n1 1 1 1\n1 1 1 1\n",
     "ball.grid:1: grid origin"),
    (["approximate"], "2 -2 -2 1 0 0 0\n1 1 1 1\n1 1 1 1\n",
     "ball.grid:1: grid dimensions"),
    (["approximate"], "2 2 2 1 0 0 0\n1 1 1 1\n\n1 -1 1 1\n",
     "ball.grid:4: grid values"),
    (["approximate"], "2 2 2 1 0 0 0\n1 1 1 1\n1 1 1 inf\n",
     "ball.grid:3: grid values"),
    (["approximate"], "2 2 2 1 0 0 0\n1 1 1 1\n1 1 1\n",
     "ball.grid: grid file has 7 values, expected 8"),
    (["approximate"], "2 2 2 1 0 0 0\n1 0 0 0\n0 0 0 1\n",
     "ball.grid: grid support must be 6-connected (found 2 components)"),
    (["approximate"], "2 2 2 1 0 0 0\n0 0 0 0\n0 0 0 0\n",
     "ball.grid: grid support is empty"),
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", 4,
      "--samples", 0], None, "--samples"),
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", 4,
      "--samples", -1], None, "--samples"),
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", 4,
      "--oracle-resolution", -5], None, "--oracle-resolution"),
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", 4,
      "--direction", "1,x,0"], None, "--direction"),
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", 4,
      "--direction", "1,inf,0"], None, "--direction"),
    (["snowman-scan", "--gamma-from", 0.1, "--gamma-to", 0.9, "--steps", 0],
     None, "--steps"),
    (["snowman-scan", "--gamma-from", 0.1, "--gamma-to", 0.9, "--steps", -1],
     None, "--steps"),
    (["rc", "--snowman-gamma", 0.5, "--directions", 0], None, "--directions"),
    (["descent", "snowman", "--directions", 0], None, "--directions"),
    # checked before the file is read
    (["descent", "spma", "--file", "missing.spma", "--eps", 0.1,
      "--directions", -1], None, "--directions"),
    (["potential", "--snowman-gamma", 0.5, "--r-from", "nan", "--r-to", 4],
     None, "--r-from"),
    (["potential", "--snowman-gamma", 0.5, "--r-from=-inf", "--r-to", 4],
     None, "--r-from"),
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", "inf"],
     None, "--r-to"),
    *[(["coeffs", "--snowman-gamma", 0.5, "--n-max", 8, "--dual-path",
        "--quad-radius=%s" % r, "--out", "c.csv"], None, "--quad-radius")
      for r in (0, -1.5, "nan", "inf")],
    # checked before the masses are read or a coefficient computed
    *[(["coeffs", "--snowman-gamma", 0.5, "--R", r, "--out", "c.csv"], None,
       "--R must be positive and finite, got %s" % r)
      for r in ("inf", "nan", "-1.0")],
    *[(["coeffs", "--snowman-gamma", 0.5, "--G", g, "--out", "c.csv"], None,
       "--G must be positive and finite, got %s" % g)
      for g in ("inf", "0.0")],
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", 4,
      "--G", "inf"], None, "--G must be positive and finite, got inf"),
    (["potential", "--snowman-gamma", 0.5, "--r-from", 3, "--r-to", 4,
      "--G", "nan"], None, "--G must be positive and finite, got nan"),
    # snowman options, checked before the snowman is built or a CSV
    # header written
    (["descent", "snowman", "--gamma", "inf"], None,
     "--gamma must be positive and finite, got inf"),
    (["descent", "snowman", "--m1", "inf"], None,
     "--m1 must be positive and finite, got inf"),
    (["descent", "snowman", "--m2", 0], None,
     "--m2 must be positive and finite, got 0.0"),
    (["snowman-scan", "--gamma-from", 0.1, "--gamma-to", "inf"], None,
     "--gamma-to must be positive and finite, got inf"),
    (["snowman-scan", "--gamma-from", "nan", "--gamma-to", 0.9], None,
     "--gamma-from must be positive and finite, got nan"),
    (["snowman-scan", "--gamma-from", 0, "--gamma-to", 0.9], None,
     "--gamma-from must be positive and finite, got 0.0"),
    # a threshold of 1 or more would drop the (0, 0) row from the file
    *[(["coeffs", "--snowman-gamma", 0.5, "--threshold", t, "--out", "c.csv"],
       None, "--threshold must be finite and in [0, 1), got %s" % t)
      for t in ("nan", "-1.0", "inf", "1.0")],
    # a budget that is not finite makes a vacuous verdict, or a failed
    # one; checked before the density or the SPMA file is read
    *[(["approximate", "--density", "missing.grid", "--delta", 0.5,
        "--eps", 0.5, "--out", "o.spma", "--report", "r.json",
        "--%s=%s" % (flag, v)], None,
       "--%s must be positive and finite, got %s" % (flag, v))
      for flag in ("delta", "eps") for v in ("inf", "nan")],
    *[(["descent", "spma", "--file", "missing.spma", "--eps", e], None,
       "--eps must be positive and finite, got %s" % e)
      for e in ("inf", "nan")],
    # an infinite tolerance would write the unbisected range
    (["snowman-scan", "--gamma-from", 0.3, "--gamma-to", 0.5, "--bisect",
      "--tol", "inf", "--out", "s.csv"], None,
     "--tol must be positive and finite, got inf"),
    # the snowman has one profile; the flag that named others is gone
    (["descent", "snowman", "--profile", "bogus"], None,
     "unrecognized arguments: --profile bogus"),
], ids=["window-one-value", "window-not-int", "resolution-1",
        "resolution-negative", "min-ball-radius",
        "min-ball-radius-infinite", "grid-header-value",
        "grid-header-fields", "grid-value", "grid-spacing-zero",
        "grid-origin-nan", "grid-dimensions-negative", "grid-value-negative",
        "grid-value-inf", "grid-value-count", "grid-disconnected",
        "grid-empty", "samples-0", "samples-negative",
        "oracle-resolution-negative", "direction-not-float",
        "direction-infinite", "steps-0", "steps-negative", "rc-directions-0",
        "descent-snowman-directions-0", "descent-spma-directions-negative",
        "r-from-nan", "r-from-infinite", "r-to-infinite", "quad-radius-0",
        "quad-radius-negative", "quad-radius-nan", "quad-radius-infinite",
        "R-infinite", "R-nan", "R-negative", "coeffs-G-infinite",
        "coeffs-G-0", "potential-G-infinite", "potential-G-nan",
        "descent-gamma-infinite", "descent-m1-infinite", "descent-m2-0",
        "scan-gamma-to-infinite", "scan-gamma-from-nan", "scan-gamma-from-0",
        "threshold-nan", "threshold-negative", "threshold-inf", "threshold-1",
        "delta-infinite", "delta-nan", "eps-infinite", "eps-nan",
        "descent-eps-infinite", "descent-eps-nan", "tol-infinite",
        "profile-unknown"])
def test_bad_inputs_name_what_is_wrong(tmp_path, monkeypatch, capsys, argv,
                                       grid, message):
    monkeypatch.chdir(tmp_path)             # where a relative --out lands
    if grid is not None:
        path = tmp_path / "ball.grid"
        if grid == "ok":
            unit_ball_grid(8).save(path)
        else:
            path.write_text(grid)
        argv = argv + ["--density", path, "--delta", 0.5, "--eps", 0.5,
                       "--out", tmp_path / "o.spma",
                       "--report", tmp_path / "r.json"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""


def test_readme_lists_every_flag_rule():
    # README's rule list names exactly the flags that declare a rule, so a
    # flag added or deleted without its doc line fails here
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        text = fh.read()
    head = "Each flag declares its rule where it is defined"
    rules = text[text.index(head):].split("\n\n")[1]
    assert rules.startswith("- ")
    ap = cli.build_parser()
    typed = {flag for p in [ap, *ap.subcommands.values()]
             for action in p._actions if action.type is not None
             for flag in action.option_strings}
    assert set(re.findall(r"--[a-zA-Z][\w-]*", rules)) == typed


@pytest.mark.parametrize("argv, message", [
    (["rc", "--snowman-gamma", 0.5, "--n-max", 9],
     "default fit window (n_max/4..n_max) 2,9 must span at least 8 degrees "
     "(set by --n-max)"),
    (["rc", "--snowman-gamma", 0.5, "--window", "10,12"],
     "fit window 10,12 must span at least 8 degrees (set by --window)"),
    (["descent", "snowman", "--n-max", 9],
     "default fit window (n_max/4..n_max) 2,9 must span at least 8 degrees "
     "(set by --n-max)"),
], ids=["rc-n-max", "rc-window", "descent-n-max"])
def test_short_fit_windows_name_the_option(tmp_path, capsys, argv, message):
    out = tmp_path / "rc.csv"
    assert run(argv + ["--out", out]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


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


def test_snowman_scan_bisect_stops_at_adjacent_floats(tmp_path):
    # a tolerance below the float spacing ends with lo and hi adjacent
    out = tmp_path / "scan.csv"
    assert run(["snowman-scan", "--gamma-from", 0.3, "--gamma-to", 0.5,
                "--steps", 2, "--bisect", "--tol", 1e-20, "--out", out]) == 0
    tail = out.read_text().splitlines()[-1]
    lo = float(tail.split("threshold_low=")[1].split()[0])
    hi = float(tail.split("threshold_high=")[1])
    assert hi == np.nextafter(lo, np.inf)


@pytest.mark.parametrize("tol", [0, -1])
def test_snowman_scan_rejects_nonpositive_tol(tol, capsys):
    assert run(["snowman-scan", "--gamma-from", 0.3, "--gamma-to", 0.5,
                "--bisect", "--tol", tol]) == 2
    assert "--tol must be positive" in capsys.readouterr().err


def test_snowman_scan_no_sign_change(tmp_path):
    # both ends are checked before --out opens, so no partial scan is left
    for lo, hi in ((0.5, 0.8), (0.1, 0.2)):
        out = tmp_path / ("s-%s.csv" % lo)
        assert run(["snowman-scan", "--gamma-from", lo, "--gamma-to", hi,
                    "--bisect", "--out", out]) == 3
        assert not out.exists()


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
    # a flag set to its own default still wins, spelt out, with '=' or
    # abbreviated as argparse accepts it; a flag the config lacks leaves
    # the config's steps
    for flags, rows in ((["--steps", 5], 5), (["--steps", 25], 25),
                        (["--steps=25"], 25), (["--ste", 25], 25),
                        (["--tol", 1e-8], 3)):
        assert run(["--config", conf, "snowman-scan"] + flags) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + rows


def test_config_cannot_replace_the_descent_positional(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"subject": "spma", "gamma": 0.3,
                                "n_max": 60, "directions": 8}))
    assert run(["--config", conf, "descent", "snowman"]) == 0
    assert "descends=false" in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"gamma_frm": 0.2}))
    assert run(["--config", conf, "snowman-scan"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[\"steps\"]", "2"])
def test_config_must_be_a_json_object(tmp_path, capsys, text):
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    assert run(["--config", conf, "snowman-scan"]) == 2
    assert "expected a JSON object of flag defaults" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv,conf,code,err", [
    (["rc", "--points", "PM", "--n-max", 60], {"directions": "5"}, 0, ""),
    (["snowman-scan"], {"gamma_from": "0.3", "gamma_to": 0.5, "steps": 2},
     0, ""),
    pytest.param(["rc", "--points", "PM"], {"directions": "five"}, 2,
                 "config key directions: must be at least 1, got 'five'",
                 id="directions-not-int"),
    pytest.param(["snowman-scan"],
                 {"gamma_from": 0.3, "gamma_to": 0.5, "steps": 2.5}, 2,
                 "config key steps: must be at least 1, got '2.5'",
                 id="steps-not-int"),
    pytest.param(["snowman-scan", "--gamma-from", 0.3, "--gamma-to", 0.5],
                 {"tol": [1e-8]}, 2,
                 "config key tol: must be positive and finite, got '[1e-08]'",
                 id="tol-a-list"),
    # JSON true is no count: only an on/off flag takes the file's value
    pytest.param(["snowman-scan"],
                 {"gamma_from": 0.3, "gamma_to": 0.5, "steps": True}, 2,
                 "config key steps: must be at least 1, got 'True'",
                 id="steps-true"),
    pytest.param(["snowman-scan", "--gamma-from", 0.3, "--gamma-to", 0.5],
                 {"bisect": True, "steps": 2}, 0, "", id="bisect-true"),
    # a flag on the command line wins, and the file's value is skipped
    pytest.param(["snowman-scan", "--gamma-from", 0.3, "--gamma-to", 0.5,
                  "--steps", 2], {"steps": 2.5}, 0, "",
                 id="overridden-value-skipped"),
    # the snowman has one profile, and no flag names it
    pytest.param(["descent", "snowman"], {"profile": "cosine_bump"}, 2,
                 "error: unknown config keys: profile\n",
                 id="profile-removed"),
])
def test_config_values_take_the_flag_type(tmp_path, capsys, argv, conf, code,
                                          err):
    pm = tmp_path / "pm.txt"
    pm.write_text("0 0 0.8 2.0\n")
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    argv = [pm if a == "PM" else a for a in argv]
    assert run(["--config", path] + argv) == code
    assert err in capsys.readouterr().err


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process main call."""
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, message", [
    (["rc", "--snowman-gamma", 0.5, "--steps"],
     "unrecognized arguments: --steps"),
    (["potential", "--snowman-gamma", 0.5, "--r", 1],
     "ambiguous option: --r could match --r-from, --r-to"),
    ([], "the following arguments are required: command"),
    (["descent"], "the following arguments are required: subject"),
], ids=["unrecognized", "ambiguous", "no-command", "no-subject"])
def test_argparse_rejections_return_2_with_one_error_line(capsys, argv,
                                                          message):
    # main returns, where argparse would print its usage and exit
    assert _outcome(argv, capsys) == (2, "", "error: %s\n" % message)


def test_calls_on_the_one_parser_print_what_fresh_parsers_print(tmp_path,
                                                                capsys):
    # main builds its parser once per process; a config call, a rejected
    # call and the same subcommand without the config must leave nothing
    # behind in it
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"gamma": 0.3, "n_max": 60, "directions": 8}))
    calls = [["--config", conf, "descent", "snowman"],
             ["descent", "nobody"],
             ["snowman-scan", "--gamma-from", 0.2, "--gamma-to", 0.6,
              "--steps", 3],
             ["descent", "snowman", "--n-max", 60, "--directions", 8]]
    cli._parser.cache_clear()
    shared = [_outcome(argv, capsys) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert "invalid choice: 'nobody'" in shared[1][2]
    assert shared[0][1] != shared[3][1]       # gamma 0.3, then the default


def test_a_command_rebound_after_the_parser_was_built_is_called(monkeypatch,
                                                                capsys):
    # a tracer wraps cmd_* functions on the module: the one parser must
    # not keep calling the functions it was built beside
    assert run(["snowman-scan", "--gamma-from", 0.2, "--gamma-to", 0.6,
                "--steps", 2]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(cli, "cmd_snowman_scan",
                        lambda args: calls.append(args.steps) or 0)
    assert run(["snowman-scan", "--gamma-from", 0.2, "--gamma-to", 0.6,
                "--steps", 2]) == 0
    assert calls == [2] and capsys.readouterr().out == ""
