"""The benchmark workloads: their jobs and each job's correctness gate.

A job is one CLI command run in process through ``gravharm.cli.main``
(or one library call).  Its gate reads what the job wrote and returns
accuracy figures; a gate raises GateError when an output is malformed or
a verdict is wrong, and a figure fails when it uses its whole tolerance.

Tolerances come from the library's own acceptance criteria:
criterion 3 (Rc within 2%), criterion 2 (partial sum within 1e-6 of the
exact potential), criterion 5 (dual-path coefficients within 1e-10),
criterion 6 (oracle within 1e-4) and the approximation's own budget
(mu1 < delta).
"""

import contextlib
import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

import gen_inputs

DIRECTIONS = 64
ORACLE_RESOLUTION = 64
RC_TOL = 0.02
SERIES_TOL = 1e-6
EXACT_TOL = 1e-12
ORACLE_TOL = 1e-4
DUAL_PATH_TOL = 1e-10
DUAL_PATH_TOL_DEGREE = 32
APPROX_BUDGET = 0.5          # delta = eps for both approximation instances


class JobError(Exception):
    """The job raised or exited non-zero."""


class GateError(Exception):
    """A job's output is malformed or carries a wrong verdict."""


@dataclass(frozen=True)
class Figure:
    """An accuracy figure and the share of its tolerance it uses (< 1)."""

    value: float
    used: float


def _within(err, tol):
    return Figure(float(err), float(err) / tol)


@dataclass(frozen=True)
class Job:
    name: str
    metric: str          # end-to-end per-command time this job adds to
    run: object          # () -> output handed to the gate
    gate: object         # (output) -> {accuracy name: Figure}


def check(job, output):
    """Apply the job's gate: its accuracy figures, or GateError."""
    figures = job.gate(output)
    for name, fig in figures.items():
        if not fig.used < 1.0:
            raise GateError("%s=%.3g uses %.3g of its tolerance"
                            % (name, fig.value, fig.used))
    return figures


def check_pass(jobs, outputs, errors, figures):
    """Gate every job of a pass that ran: failures go into `errors`,
    accuracy figures are appended to `figures[name]`."""
    for job in jobs:
        if job.name in errors:
            continue
        try:
            result = check(job, outputs[job.name])
        except (GateError, OSError, KeyError, ValueError) as exc:
            errors[job.name] = "gate: %s" % exc
            continue
        for name, fig in result.items():
            figures.setdefault(name, []).append(fig)


def _cli(argv):
    """Run the gravharm CLI in process; returns what it printed."""
    argv = [str(a) for a in argv]

    def run():
        from gravharm.cli import main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:    # argparse rejected the arguments
                code = exc.code
        if code != 0:
            raise JobError("exit code %d: %s" % (code, err.getvalue().strip()))
        return out.getvalue()
    return run


def _fields(text):
    """key=value tokens of a CLI summary line, as strings."""
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def _number(fields, key):
    try:
        value = float(fields[key])
    except (KeyError, ValueError):
        raise GateError("no numeric %s= in the output" % key)
    if not math.isfinite(value):
        raise GateError("%s is not finite" % key)
    return value


def _verdict(text, expected):
    got = _fields(text).get("descends")
    if got != str(expected).lower():
        raise GateError("descends=%s, expected %s" % (got, str(expected).lower()))


def _rows(path, expected, header):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise GateError("%s: unexpected header %r" % (path, rows[:1]))
    if len(rows) - 1 != expected:
        raise GateError("%s: %d rows, expected %d"
                        % (path, len(rows) - 1, expected))
    return rows[1:]


RC_HEADER = ["direction_index", "theta", "phi", "rc_estimate", "method",
             "n_lo", "n_hi", "residual", "classification"]
RAY_HEADER = ["x", "y", "z", "V_exact", "V_partial_sum_N", "V_oracle"]


def _rc_table(path):
    """Per-direction CSV: every row parses and one direction is conclusive."""
    rows = _rows(path, DIRECTIONS, RC_HEADER)
    try:
        for row in rows:
            float(row[1]), float(row[2]), float(row[3]), float(row[7])
    except (ValueError, IndexError):
        raise GateError("%s: malformed row" % path)
    if all(row[8] == "inconclusive" for row in rows):
        raise GateError("%s: every direction inconclusive" % path)


def _ray(path, samples):
    """(points, V_exact, V_series, V_oracle or None) from a potential CSV."""
    rows = _rows(path, samples, RAY_HEADER)
    try:
        pts = np.array([[float(v) for v in r[:3]] for r in rows])
        exact = np.array([float(r[3]) for r in rows])
        series = np.array([float(r[4]) for r in rows])
        oracle = (np.array([float(r[5]) for r in rows])
                  if all(r[5] for r in rows) else None)
    except ValueError as exc:
        raise GateError("%s: %s" % (path, exc))
    return pts, exact, series, oracle


def _max_rel(a, b):
    err = float(np.max(np.abs(a - b) / np.abs(b)))
    if not math.isfinite(err):
        raise GateError("non-finite relative error")
    return err


def read_coeffs(path):
    """Coefficient CSV -> (R, GM, n_max, {(n, m): C}); omitted entries are 0."""
    with open(path) as fh:
        meta = fh.readline()
        if not meta.startswith("#") or fh.readline().strip() != "n,m,C":
            raise GateError("%s: missing metadata or header" % path)
        try:
            kv = dict(tok.split("=") for tok in meta[1:].split())
            C = {}
            for line in fh:
                n, m, c = line.split(",")
                C[int(n), int(m)] = float(c)
            return float(kv["R"]), float(kv["GM"]), int(kv["n_max"]), C
        except (KeyError, ValueError) as exc:
            raise GateError("%s: %s" % (path, exc))


def dual_path_gate(path, n_max, quad_radius):
    """Analytic against quadrature coefficients, degree by degree.

    Criterion 5 holds the two paths to 1e-10 through degree 32.  Above
    that the budget grows by R_quad/R per degree, the noise
    amplification the quadrature docstring states.
    """
    R, GM, n, ca = read_coeffs(path)
    Rq, GMq, nq, cq = read_coeffs(path + ".quad")
    if n != n_max or nq != n_max or Rq != R:
        raise GateError("coefficient files disagree on n_max or R")
    if not abs(ca.get((0, 0), 0.0) - 1.0) <= EXACT_TOL:
        raise GateError("analytic C(0,0) is %r, not 1" % ca.get((0, 0)))
    if not abs(GMq - GM) <= DUAL_PATH_TOL * GM:
        raise GateError("GM differs: %r vs %r" % (GM, GMq))
    worst, used = 0.0, 0.0
    for key in set(ca) | set(cq):
        n, m = key
        if not (0 <= n <= n_max and abs(m) <= n):
            raise GateError("entry (%d, %d) out of range" % key)
        d = abs(ca.get(key, 0.0) - cq.get(key, 0.0))
        budget = DUAL_PATH_TOL * (quad_radius / R) ** max(
            0, n - DUAL_PATH_TOL_DEGREE)
        worst, used = max(worst, d), max(used, d / budget)
    if not math.isfinite(used):
        raise GateError("non-finite coefficient difference")
    return {"acc.dual_path_max_dC": Figure(worst, used)}


def approximation_gate(report_path, spma_path, delta):
    """p1-p7 all pass, mu1 < delta, and the SPMA file holds every component."""
    with open(report_path) as fh:
        try:
            report = json.load(fh)
        except ValueError as exc:
            raise GateError("%s: %s" % (report_path, exc))
    failed = [k for k in ("p1", "p2", "p3", "p4", "p5", "p6", "p7")
              if report.get(k, {}).get("pass") is not True]
    if failed:
        raise GateError("report properties failed: %s" % ", ".join(failed))
    summary = report["summary"]
    with open(spma_path) as fh:
        lines = sum(1 for line in fh if line.strip())
    if lines != summary["components"]:
        raise GateError("%s has %d components, report says %d"
                        % (spma_path, lines, summary["components"]))
    mu1 = float(summary["mu1"])
    return {"acc.mu1_over_delta": _within(mu1 / delta, 1.0)}


# ---------------------------------------------------------------------------
# workloads

def expansion(work, seed):
    """Few masses at high degree: the per-(n, m) loops of `she` dominate."""
    points = os.path.join(work, "single_mass.txt")
    facts = gen_inputs.write_single_mass(points, seed)
    rc_csv = os.path.join(work, "snowman_rc.csv")
    ray_csv = os.path.join(work, "snowman_ray.csv")
    samples, n_max = 4, 200

    def descends(out):
        _verdict(out, True)
        _rc_table(rc_csv)
        # the snowman's point masses sit at +-1, so Rc = 1
        rc = _number(_fields(out), "Rc")
        return {"acc.descent_rc_rel_err": _within(abs(rc - 1.0), RC_TOL)}

    def ray(out):
        pts, exact, series, _ = _ray(ray_csv, samples)
        # exterior of both unit masses at (+-1, 0, 0)
        closed = (1 / np.linalg.norm(pts - [1, 0, 0], axis=1)
                  + 1 / np.linalg.norm(pts + [1, 0, 0], axis=1))
        return {"acc.exact_rel_err": _within(_max_rel(exact, closed), EXACT_TOL),
                "acc.series_rel_err": _within(_max_rel(series, closed),
                                              SERIES_TOL)}

    def stays_out(out):
        _verdict(out, False)
        return {}

    def rc(out):
        est = _number(_fields(out), "Rc")
        return {"acc.rc_rel_err": _within(abs(est - facts["rc"]) / facts["rc"],
                                          RC_TOL)}

    return [
        Job("descent snowman gamma=0.5", "descent_s",
            _cli(["descent", "snowman", "--gamma", 0.5, "--n-max", n_max,
                  "--directions", DIRECTIONS, "--out", rc_csv]), descends),
        Job("descent snowman gamma=0.3", "descent_s",
            _cli(["descent", "snowman", "--gamma", 0.3, "--n-max", n_max,
                  "--directions", DIRECTIONS]),
            stays_out),
        Job("rc single mass", "rc_s",
            _cli(["rc", "--points", points, "--n-max", n_max,
                  "--directions", DIRECTIONS, "--window", "50,200"]), rc),
        Job("potential snowman ray", "potential_s",
            _cli(["potential", "--snowman-gamma", 0.5, "--direction", "0,1,1",
                  "--r-from", 1.2, "--r-to", 3, "--samples", samples,
                  "--n-max", n_max, "--out", ray_csv]), ray),
    ]


def _shell_theorem_job():
    """Criterion 6 at resolution 64: brute-force oracle on a uniform ball."""
    rho0, a = 2.0, 1.0
    rng = np.random.default_rng(99)
    pts = np.array([rng.uniform(1.5, 3.0) * (v / np.linalg.norm(v))
                    for v in rng.normal(size=(10, 3))])

    def run():
        from gravharm import SPMA, SmoothedPointMass, potential_oracle, table_profile
        ball = SmoothedPointMass((0, 0, 0), table_profile(
            [0.0, a], [rho0, rho0], check_boundary=False))
        return potential_oracle(SPMA([ball]), pts,
                                resolution=ORACLE_RESOLUTION, subcell=4)

    def gate(values):
        # outside the ball the potential is M / r exactly (shell theorem),
        # which potential_spm reproduces bit for bit
        exact = (4 / 3) * math.pi * rho0 * a**3 / np.linalg.norm(pts, axis=1)
        return {"acc.oracle_rel_err": _within(_max_rel(values, exact),
                                              ORACLE_TOL)}
    return run, gate


def field(work, seed):
    """Many components at moderate degree: per-component loops dominate."""
    model = os.path.join(work, "field.spma")
    facts = gen_inputs.write_field_spma(model, seed)
    coeffs = os.path.join(work, "field_coeffs.csv")
    rc_csv = os.path.join(work, "field_rc.csv")
    ray_csv = os.path.join(work, "field_ray.csv")
    samples, n_coeffs = 4, 60

    def dual_path(out):
        quad = re.search(r"quadrature radius ([^)\s]+)", out)
        if quad is None:
            raise GateError("no quadrature radius in the output")
        return dual_path_gate(coeffs, n_coeffs, float(quad.group(1)))

    def descends(out):
        f = _fields(out)
        if abs(_number(f, "R") - facts["support_radius"]) > 1e-12:
            raise GateError("R=%s, support radius is %r"
                            % (f.get("R"), facts["support_radius"]))
        _verdict(out, True)
        _rc_table(rc_csv)
        # a point-mass array's expansion converges down to its farthest mass
        rc, far = _number(f, "Rc"), facts["max_center_norm"]
        return {"acc.descent_rc_rel_err": _within(abs(rc - far) / far, RC_TOL)}

    def ray(out):
        _, exact, series, oracle = _ray(ray_csv, samples)
        if oracle is None:
            raise GateError("oracle column missing")
        # the oracle docstring promises O(h^2) away from the support
        h = facts["box_width"] / ORACLE_RESOLUTION
        return {"acc.series_rel_err": _within(_max_rel(series, exact),
                                              SERIES_TOL),
                "acc.ray_oracle_rel_err": _within(_max_rel(oracle, exact),
                                                  h * h)}

    d = ",".join(format(t, ".17g") for t in facts["ray"])
    oracle_run, oracle_gate = _shell_theorem_job()
    return [
        Job("coeffs dual path", "coeffs_s",
            _cli(["coeffs", "--spma", model, "--n-max", n_coeffs,
                  "--dual-path", "--out", coeffs]), dual_path),
        Job("descent spma", "descent_s",
            _cli(["descent", "spma", "--file", model, "--eps", 0.1,
                  "--n-max", 160, "--directions", DIRECTIONS,
                  "--out", rc_csv]), descends),
        Job("potential spma ray", "potential_s",
            # one token, so that a leading minus is not read as an option
            _cli(["potential", "--spma", model, "--direction=" + d,
                  "--r-from", 1.2, "--r-to", 3, "--samples", samples,
                  "--n-max", 120, "--oracle-resolution", ORACLE_RESOLUTION,
                  "--out", ray_csv]), ray),
        Job("shell-theorem oracle", "oracle_s", oracle_run, oracle_gate),
    ]


def approximate(work, seed):
    """Greedy filling and background fit: `construct` and `density` only.

    Both instances are fixed (the seed does not change them): the
    constant ball never enters the variance-capped greedy path, the
    graded ball enters it at every step.
    """
    jobs = []
    for label, n, graded, metric in (("constant ball 24^3", 24, False,
                                      "approximate_s"),
                                     ("graded ball 20^3", 20, True,
                                      "approximate_graded_s")):
        stem = os.path.join(work, "ball%d" % n)
        gen_inputs.write_ball_grid(stem + ".grid", n, graded)
        jobs.append(Job(
            "approximate " + label, metric,
            _cli(["approximate", "--density", stem + ".grid",
                  "--delta", APPROX_BUDGET, "--eps", APPROX_BUDGET,
                  "--out", stem + ".spma", "--report", stem + ".json"]),
            lambda out, stem=stem: approximation_gate(
                stem + ".json", stem + ".spma", APPROX_BUDGET)))
    return jobs


WORKLOADS = {"expansion": expansion, "field": field, "approximate": approximate}
