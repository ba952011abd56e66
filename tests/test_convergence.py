"""Root-test convergence radii, partial-sum classification, descent."""

import math

import numpy as np
import pytest

from gravharm import (AllDirectionsInconclusive, Direction, PointMass, SPMA,
                      SmoothedPointMass, SnowmanParams, build_snowman,
                      classify_partial_sums, coeffs_from_point_masses,
                      epsilon_descent_check, estimate_rc,
                      estimate_rc_reports, quadratic_bump)
from gravharm.convergence import ABS_FLOOR, _fit_report, fit_window
from gravharm.she import direction_coefficient_table


def axis_mass_coeffs(d=0.8, n_max=200, R=1.0):
    return coeffs_from_point_masses([PointMass((0, 0, d), 1.0)], R, n_max)


# ---------------------------------------------------------------------------
# root-test estimates

def test_estimate_rc_single_off_center_mass():
    # the convergence radius of a single point mass is its distance
    c = axis_mass_coeffs(0.8)
    rc = estimate_rc(c, k=64, window=(50, 200))
    assert rc == pytest.approx(0.8, rel=0.02)


def test_estimate_rc_direction_on_axis():
    c = axis_mass_coeffs(0.6)
    b = direction_coefficient_table(c, [0.0], [0.0])[0]
    rep = _fit_report(b, Direction(0.0, 0.0), (50, 200), c.ref_radius)
    assert rep.classification == "convergent_at"
    assert rep.rc_estimate == pytest.approx(0.6, rel=0.02)
    assert rep.method == "root_test"


def test_estimate_rc_origin_mass_inconclusive():
    # radially symmetric: every lumped coefficient above degree 0 vanishes
    c = coeffs_from_point_masses([PointMass((0, 0, 0), 1.0)], 1.0, 100)
    with pytest.raises(AllDirectionsInconclusive):
        estimate_rc(c, k=16, window=(25, 100))


def test_estimate_rc_window_validation():
    c = axis_mass_coeffs(0.5, n_max=60)
    with pytest.raises(ValueError):
        estimate_rc(c, k=4, window=(50, 55))     # span below 8 degrees
    with pytest.raises(ValueError):
        estimate_rc(c, k=4, window=(10, 70))     # beyond n_max
    with pytest.raises(ValueError):
        estimate_rc(c, k=0)


def _polyfit_report(b, window, ref_radius):
    """(rc, residual) of the root test by np.polyfit: the fit the closed
    form replaced, kept as its reference."""
    ns = np.arange(window[0], window[1] + 1)
    vals = np.abs(b[window[0]:window[1] + 1])
    keep = vals > ABS_FLOOR
    x, y = ns[keep], np.log(vals[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
    return ref_radius * math.exp(slope), resid


def test_closed_form_fit_matches_polyfit():
    rng = np.random.default_rng(3)
    c = coeffs_from_point_masses(
        [PointMass(rng.uniform(-0.5, 0.5, 3), m) for m in (1.0, 2.0, 0.7)],
        1.3, 120)
    tables = [direction_coefficient_table(c, rng.uniform(0, math.pi, 16),
                                          rng.uniform(0, 2 * math.pi, 16))]
    # noisy geometric decay with up to 40% of the window under the floor
    n = np.arange(121)
    for skipped in (0, 10, 30, 36):
        b = 0.9 ** n * np.exp(rng.normal(scale=0.3, size=n.size))
        b[rng.choice(np.arange(30, 121), skipped, replace=False)] = 0.0
        tables.append(b[None])
    for table in tables:
        for b in table:
            rep = _fit_report(b, Direction(1.0, 1.0), (30, 120), 1.3)
            assert rep.classification == "convergent_at"
            rc, resid = _polyfit_report(b, (30, 120), 1.3)
            assert rep.rc_estimate == pytest.approx(rc, rel=1e-12)
            assert rep.residual == pytest.approx(resid, rel=1e-12)


def test_a_mostly_skipped_window_is_inconclusive():
    b = 0.9 ** np.arange(41)
    b[10:40:2] = 0.0
    b[11] = 0.0                           # 16 of 31 degrees under the floor
    rep = _fit_report(b, Direction(1.0, 1.0), (10, 40), 1.0)
    assert rep.classification == "inconclusive"
    b[11] = 1e-299
    assert _fit_report(b, Direction(1.0, 1.0), (10, 40),
                       1.0).classification == "convergent_at"


def test_fit_window_names_the_window():
    assert fit_window(200) == (50, 200)
    assert fit_window(60, (10, 60)) == (10, 60)
    with pytest.raises(ValueError, match="default fit window .* 2,9 must "
                                         "span at least 8 degrees"):
        fit_window(9)
    with pytest.raises(ValueError, match="fit window 10,12 must span"):
        fit_window(60, (10, 12))
    with pytest.raises(ValueError, match=r"fit window 10,70 must lie within "
                                         r"\[0, n_max=60\]"):
        fit_window(60, (10, 70))
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        fit_window(-1)


def test_estimate_rc_reports_ordering_and_content():
    c = axis_mass_coeffs(0.7)
    reps = estimate_rc_reports(c, k=8, window=(50, 200))
    assert len(reps) == 8
    best = max(r.rc_estimate for r in reps
               if r.classification != "inconclusive")
    assert best == pytest.approx(estimate_rc(c, k=8, window=(50, 200)))


def test_estimate_rc_scale_equivariance():
    # scaling positions and R by s leaves the coefficients unchanged and
    # scales the estimate exactly by s
    for s in (0.5, 3.0):
        c1 = axis_mass_coeffs(0.8, R=1.0)
        c2 = coeffs_from_point_masses([PointMass((0, 0, 0.8 * s), 1.0)],
                                      s, 200)
        r1 = estimate_rc(c1, k=16, window=(50, 200))
        r2 = estimate_rc(c2, k=16, window=(50, 200))
        assert r2 == pytest.approx(s * r1, rel=1e-9)


def test_estimate_rc_rotation_equivariance():
    # rotating the configuration preserves the estimate within the
    # direction-sampling tolerance of the fit
    th = 0.9
    Rm = np.array([[math.cos(th), -math.sin(th), 0],
                   [math.sin(th), math.cos(th), 0],
                   [0, 0, 1.0]])
    pts = np.array([[0.0, 0.0, 0.8], [0.3, 0.2, -0.1]])
    ms = [1.0, 2.0]
    c1 = coeffs_from_point_masses(
        [PointMass(p, m) for p, m in zip(pts, ms)], 1.0, 200)
    c2 = coeffs_from_point_masses(
        [PointMass(Rm @ p, m) for p, m in zip(pts, ms)], 1.0, 200)
    r1 = estimate_rc(c1, k=128, window=(50, 200))
    r2 = estimate_rc(c2, k=128, window=(50, 200))
    assert r2 == pytest.approx(r1, rel=0.05)


# ---------------------------------------------------------------------------
# partial-sum classification

def test_classify_divergent_inside_critical_radius():
    c = axis_mass_coeffs(0.8, n_max=400)
    rep = classify_partial_sums(c, 0.7, Direction(0.0, 0.0))
    assert rep.classification == "divergent_at"


def test_classify_convergent_outside_critical_radius():
    # the 1e-9 late-fluctuation criterion needs the tail resolved: at
    # r = 0.9 the terms decay like (8/9)^n, so degree 400 suffices
    c = axis_mass_coeffs(0.8, n_max=400)
    rep = classify_partial_sums(c, 0.9, Direction(0.0, 0.0))
    assert rep.classification == "convergent_at"
    # geometric series limit Gm / (0.9 - 0.8)
    assert rep.final_sum == pytest.approx(1.0 / 0.1, rel=1e-6)


def test_classify_inconclusive_while_the_tail_is_unresolved():
    # at r = 0.85 the terms decay like (16/17)^n: through degree 20 the
    # sums neither blow up nor settle within 1e-9 of the last one
    c = axis_mass_coeffs(0.8, n_max=20)
    rep = classify_partial_sums(c, 0.85, Direction(0.0, 0.0))
    assert rep.classification == "inconclusive"
    assert rep.late_fluctuation > 1e-9 * abs(rep.final_sum)
    assert rep.max_abs_sum == abs(rep.final_sum)


def test_classify_validation():
    c = axis_mass_coeffs(0.5, n_max=40)
    with pytest.raises(ValueError):
        classify_partial_sums(c, -1.0, Direction(0.0, 0.0))


# ---------------------------------------------------------------------------
# epsilon descent

def test_descent_snowman_spma():
    spma = build_snowman(SnowmanParams(0.5))
    rep = epsilon_descent_check(spma, 0.3, n_max=300, k=32)
    # support radius 2.5, point-mass Rc near 1: descends by a wide margin
    assert rep.brillouin_radius == 2.5
    assert rep.descends
    assert rep.rc_estimate == pytest.approx(1.0, rel=0.05)
    assert not rep.inconclusive_rc


def test_descent_fails_for_tight_epsilon():
    spma = build_snowman(SnowmanParams(0.5))
    rep = epsilon_descent_check(spma, 2.0, n_max=300, k=32)
    assert not rep.descends


def test_descent_radially_symmetric_reports_inconclusive_rc():
    spma = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))])
    rep = epsilon_descent_check(spma, 0.5, n_max=100, k=8)
    assert rep.inconclusive_rc
    assert rep.rc_estimate == 0.0
    assert rep.descends            # exterior field is exactly GM/r


def test_descent_eps_validation():
    spma = build_snowman(SnowmanParams(0.5))
    for eps in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            epsilon_descent_check(spma, eps)
