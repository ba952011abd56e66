"""Tests of the benchmark itself: tracer accounting, gates, metric lists.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import os
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen_inputs  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture()
def fake_package(monkeypatch):
    """fakepkg.a defines leaf/outer; fakepkg.b binds leaf by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf():
        _spin(0.01)

    def outer():
        _spin(0.01)
        a.leaf()
        b.leaf()

    a.leaf, a.outer, b.leaf = leaf, outer, leaf
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b


def test_self_times_sum_to_traced_wall(fake_package):
    a, b = fake_package
    tracer = Tracer([Target("fakepkg.a", "leaf"), Target("fakepkg.a", "outer")])
    with tracer:
        t0 = time.perf_counter()
        a.outer()
        b.leaf()
        wall = time.perf_counter() - t0
    table = tracer.summary()
    assert table["a.leaf"][0] == 3 and table["a.outer"][0] == 1
    total_self = sum(s for _, _, s in table.values())
    # everything inside the timed region is traced, so only the tracer's
    # own bookkeeping separates the two
    assert total_self <= wall
    assert wall - total_self < 0.05 * wall
    # outer's self time is its own 10 ms spin, not its two 10 ms children
    outer_total, outer_self = table["a.outer"][1:]
    assert 0.01 <= outer_self <= outer_total - 2 * 0.01


def test_tracer_restores_every_binding(fake_package):
    a, b = fake_package
    leaf = a.leaf
    with Tracer([Target("fakepkg.a", "leaf")]):
        assert a.leaf is not leaf and b.leaf is a.leaf
    assert a.leaf is leaf and b.leaf is leaf


def test_real_job_self_times_cover_its_wall(tmp_path):
    """A small CLI job: spans cover the traced wall time except argument
    parsing in gravharm.cli.main, which no traced function contains."""
    import gravharm.cli
    import gravharm.she
    points = tmp_path / "pm.txt"
    gen_inputs.write_single_mass(str(points), seed=0)
    job = jobs.Job("rc", "rc_s", jobs._cli(
        ["rc", "--points", points, "--n-max", 60, "--directions", 8,
         "--window", "10,60"]), None)
    original = gravharm.cli.coeffs_from_point_masses
    tracer = Tracer(layers.targets())
    with tracer:
        assert gravharm.cli.coeffs_from_point_masses is not original
        t0 = time.perf_counter()
        times, outputs, errors = run.run_pass([job], tracer)
        wall = time.perf_counter() - t0
    assert not errors
    assert gravharm.cli.coeffs_from_point_masses is original
    assert gravharm.she.coeffs_from_point_masses is original
    total_self = sum(tracer.self_times())
    assert total_self <= wall
    assert wall - total_self < 0.05 * wall + 0.02
    m = layers.metrics(tracer)
    assert m["cli.cmd_rc.calls"] == 1
    assert m["she.coeffs_from_point_masses.calls"] == 1
    assert m["she.recurrence_terms"] == 61 * 62 // 2 * (1 + 8)
    assert m["convergence.conclusive_ratio"] == 1.0
    assert {s.trace_id for s in tracer.spans} == {"rc"}


# ---------------------------------------------------------------------------
# gates must be able to fail


def _write_coeffs(path, R, GM, C):
    n_max = max(n for n, _ in C)
    with open(path, "w") as fh:
        fh.write("# R=%.17g GM=%.17g n_max=%d\nn,m,C\n" % (R, GM, n_max))
        for (n, m), c in sorted(C.items()):
            fh.write("%d,%d,%.17g\n" % (n, m, c))


def test_dual_path_gate_rejects_corrupted_coefficients(tmp_path):
    path = str(tmp_path / "c.csv")
    C = {(n, m): 0.1 / (n + 1) for n in range(41) for m in range(-n, n + 1)}
    C[0, 0] = 1.0
    _write_coeffs(path, 0.8, 3.0, C)
    _write_coeffs(path + ".quad", 0.8, 3.0, C)
    gate = lambda out: jobs.dual_path_gate(path, 40, 0.96)
    job = jobs.Job("coeffs", "coeffs_s", None, gate)
    assert jobs.check(job, "")["acc.dual_path_max_dC"].value == 0.0
    C[5, -3] += 1e-9
    _write_coeffs(path + ".quad", 0.8, 3.0, C)
    with pytest.raises(jobs.GateError):
        jobs.check(job, "")
    # above degree 32 the budget grows by R_quad / R = 1.2 per degree:
    # 1.2^8 * 1e-10 = 4.3e-10 at degree 40
    C[5, -3] -= 1e-9
    C[40, 7] += 3e-10
    _write_coeffs(path + ".quad", 0.8, 3.0, C)
    assert jobs.check(job, "")["acc.dual_path_max_dC"].used < 1
    C[40, 7] += 1e-8
    _write_coeffs(path + ".quad", 0.8, 3.0, C)
    with pytest.raises(jobs.GateError):
        jobs.check(job, "")


def _approximation(tmp_path, **changes):
    report = {k: {"pass": True} for k in
              ("p1", "p2", "p3", "p4", "p5", "p6", "p7")}
    report["summary"] = {"components": 2, "mu1": 0.2}
    for key, value in changes.items():
        if key == "summary":
            report["summary"].update(value)
        else:
            report[key] = value
    (tmp_path / "r.json").write_text(json.dumps(report))
    (tmp_path / "a.spma").write_text("0 0 0 1 quadratic_bump 1\n"
                                     "0 0 0.5 1 quadratic_bump 1\n")
    job = jobs.Job("approximate", "approximate_s", None,
                   lambda out: jobs.approximation_gate(
                       str(tmp_path / "r.json"), str(tmp_path / "a.spma"), 0.5))
    return jobs.check(job, "")


def test_approximation_gate_rejects_corrupted_reports(tmp_path):
    assert _approximation(tmp_path)["acc.mu1_over_delta"].value == 0.4
    for bad in ({"p4": {"pass": False}}, {"p7": {}},
                {"summary": {"mu1": 0.5}}, {"summary": {"components": 3}}):
        with pytest.raises(jobs.GateError):
            _approximation(tmp_path, **bad)


def test_expansion_gates_reject_wrong_outputs(tmp_path):
    by_metric = {}
    for job in jobs.expansion(str(tmp_path), seed=3):
        by_metric.setdefault(job.metric, []).append(job)
    descend, stay = by_metric["descent_s"]
    with pytest.raises(jobs.GateError):
        jobs.check(stay, "R=2.3 Rc=1.001 eps=0 descends=true waist=0.83")
    jobs.check(stay, "R=2.3 Rc=1.001 eps=0 descends=false waist=0.83")
    rc, = by_metric["rc_s"]
    assert jobs.check(rc, "Rc=0.801\n")["acc.rc_rel_err"].used < 1
    for bad in ("Rc=0.82\n", "Rc=nan\n", "no estimate\n"):
        with pytest.raises(jobs.GateError):
            jobs.check(rc, bad)
    ray, = by_metric["potential_s"]
    r = np.linspace(1.2, 3, 4)
    pts = r[:, None] * np.array([0, 1, 1]) / np.sqrt(2)
    exact = 2 / np.sqrt(1 + r * r)
    rows = ["x,y,z,V_exact,V_partial_sum_N,V_oracle"]
    rows += [",".join("%.17g" % t for t in (*p, v, v)) + "," for p, v in zip(pts, exact)]
    (tmp_path / "snowman_ray.csv").write_text("\n".join(rows) + "\n")
    assert jobs.check(ray, "")["acc.series_rel_err"].value < 1e-15
    rows[3] = rows[3].rsplit(",", 2)[0] + ",%.17g," % (exact[2] * (1 + 1e-5))
    (tmp_path / "snowman_ray.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(jobs.GateError):
        jobs.check(ray, "")


# ---------------------------------------------------------------------------
# the benchmark's published metric lists and failure modes


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.metric_units()


def test_field_inputs_follow_the_seed(tmp_path):
    a, b, c = (str(tmp_path / n) for n in ("a", "b", "c"))
    fa = gen_inputs.write_field_spma(a, 7, count=30)
    gen_inputs.write_field_spma(b, 7, count=30)
    gen_inputs.write_field_spma(c, 8, count=30)
    text = [open(p).read() for p in (a, b, c)]
    assert text[0] == text[1] != text[2]
    assert fa["max_center_norm"] <= gen_inputs.FIELD_CENTER_BALL


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "expansion", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
