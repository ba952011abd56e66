"""Greedy fillings, smoothed-array approximation, and the snowman family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from gravharm import (ConstructionError, FillingBudgetError, FillingParams,
                      SnowmanParams, build_snowman, evaluate,
                      snowman_descends_to_topography, snowman_waist_radius,
                      spherical_filling, spma_approximate)

from gravharm import density as density_module

from conftest import unit_ball_grid


# ---------------------------------------------------------------------------
# spherical filling

@pytest.fixture(scope="module")
def ball_filling():
    g = unit_ball_grid(16)
    return g, spherical_filling(g, FillingParams(delta=0.7, eps=0.7))


def test_filling_balls_pairwise_interior_disjoint(ball_filling):
    _, fill = ball_filling
    centers = fill.filling.centers
    radii = fill.filling.radii
    tree = cKDTree(centers)
    r_max = float(radii.max())
    pairs = tree.query_pairs(2 * r_max, output_type="ndarray")
    if len(pairs):
        d = np.linalg.norm(centers[pairs[:, 0]] - centers[pairs[:, 1]],
                           axis=1)
        need = radii[pairs[:, 0]] + radii[pairs[:, 1]]
        assert np.all(d >= need - 1e-9)


def test_filling_balls_stay_inside_support(ball_filling):
    g, fill = ball_filling
    centers = fill.filling.centers
    radii = fill.filling.radii
    # centers sit on positive nodes and each ball keeps clear of the
    # trilinear zero set, so ||c|| + r stays within one cell of the ball
    assert np.all(evaluate(g, centers) > 0)
    assert np.all(np.linalg.norm(centers, axis=1) + radii
                  <= 1.0 + g.spacing + 1e-9)


def test_filling_greedy_first_ball_is_largest(ball_filling):
    _, fill = ball_filling
    radii = fill.filling.radii
    assert radii[0] == radii.max()
    # the inscribed ball of the unit ball at this resolution is macroscopic
    assert radii[0] > 0.5


def test_filling_residual_below_budget(ball_filling):
    g, fill = ball_filling
    assert fill.residual_mass < fill.a1_bound
    # recompute the node-quadrature residual independently
    nodes = g.node_coordinates()
    vals = np.ravel(g.values, order="C")
    pos = vals > 0
    covered = np.zeros(pos.sum(), dtype=bool)
    tree = cKDTree(nodes[pos])
    for c, r in zip(fill.filling.centers, fill.filling.radii):
        covered[tree.query_ball_point(c, r)] = True
    resid = float(vals[pos][~covered].sum() * g.spacing**3)
    assert resid == pytest.approx(fill.residual_mass, abs=1e-9)


def test_covering_is_a_support_blanket(ball_filling):
    g, fill = ball_filling
    nodes = g.node_coordinates()
    pos = np.ravel(g.values, order="C") > 0
    # one covering ball of radius 2h per support node, centered there
    assert len(fill.covering) == int(pos.sum())
    assert np.all(fill.covering.radii == 2 * g.spacing)
    tree = cKDTree(fill.covering.centers)
    d = tree.query(nodes[pos], k=1)[0]
    assert np.max(d) == 0.0


def test_filling_budget_error_for_tiny_budget():
    g = unit_ball_grid(16)
    with pytest.raises(FillingBudgetError, match="a1"):
        spherical_filling(g, FillingParams(delta=1e-9, eps=1e-9))


def test_filling_params_validation():
    with pytest.raises(ValueError):
        FillingParams(delta=0.0, eps=0.1)


# ---------------------------------------------------------------------------
# approximation

@pytest.fixture(scope="module")
def ball_approx():
    g = unit_ball_grid(16)
    return g, spma_approximate(g, FillingParams(delta=0.7, eps=0.7))


def test_approximate_required_properties_pass(ball_approx):
    _, res = ball_approx
    for key in ("p1", "p2", "p3", "p4", "p5", "p6", "p7"):
        assert res.report[key]["pass"], res.report[key]


def test_approximate_report_labels_what_it_does_not_measure(ball_approx):
    g, res = ball_approx
    n_support = int(np.count_nonzero(g.values > 0))
    for key in ("p2", "a3"):
        rep = res.report[key]
        assert rep["pass"] and "by_construction" not in rep
        assert rep["nodes_checked"] == n_support
        assert rep["nodes_uncovered"] == 0
    assert res.report["a6"]["pass"] and res.report["a6"]["by_construction"]
    a7, n_fill = res.report["a7"], len(res.filling.filling)
    assert a7["balls_checked"] == a7["balls_total"] == n_fill


def test_approximate_evaluates_a_resampled_density_once(monkeypatch):
    # the filling grid is built once and shared with the approximation
    g = unit_ball_grid(16)
    calls = []

    def counting(density, x):
        calls.append(density is g)
        return evaluate(density, x)
    monkeypatch.setattr(density_module, "evaluate", counting)
    res = spma_approximate(g, FillingParams(delta=0.7, eps=0.7,
                                           grid_resolution=20))
    assert calls.count(True) == 1
    assert res.filling.grid.shape == (20, 20, 20)


def test_approximate_center_norms_distinct(ball_approx):
    _, res = ball_approx
    norms = np.linalg.norm(res.spma.centers, axis=1)
    assert len(np.unique(norms)) == len(norms)


def test_approximate_extremal_component_small(ball_approx):
    _, res = ball_approx
    norms = np.linalg.norm(res.spma.centers, axis=1)
    i = int(np.argmax(norms))
    assert res.spma.radii[i] < 0.7 / 2.0
    assert res.report["extremal"]["pass"]


def test_approximate_metric_within_budget(ball_approx):
    _, res = ball_approx
    assert res.report["p3"]["mu1"] < 0.7


def test_approximate_brillouin_radii_close(ball_approx):
    g, res = ball_approx
    rep = res.report["p6"]
    assert abs(rep["R_f"] - rep["R_lambda"]) < 0.7 + 3 * g.spacing


def test_approximate_deterministic(ball_approx):
    g, res = ball_approx
    res2 = spma_approximate(g, FillingParams(delta=0.7, eps=0.7))
    assert np.array_equal(res2.spma.centers, res.spma.centers)
    assert np.array_equal(res2.spma.radii, res.spma.radii)
    assert res2.report["summary"] == res.report["summary"]


def test_approximate_budget_error_propagates():
    g = unit_ball_grid(16)
    with pytest.raises(FillingBudgetError):
        spma_approximate(g, FillingParams(delta=1e-9, eps=1e-9))


# ---------------------------------------------------------------------------
# snowman family

def test_build_snowman_geometry():
    spma = build_snowman(SnowmanParams(0.5))
    assert len(spma) == 2
    assert np.array_equal(spma.centers, [[1, 0, 0], [-1, 0, 0]])
    assert np.all(spma.radii == 1.5)
    assert spma.masses == pytest.approx([1.0, 1.0], rel=1e-12)


def test_snowman_masses_configurable():
    spma = build_snowman(SnowmanParams(0.2, m1=2.0, m2=3.0,
                                       profile_kind="cosine_bump"))
    assert spma.masses == pytest.approx([2.0, 3.0], rel=1e-12)


def test_snowman_waist_closed_form():
    # [DERIVED] sqrt((1 + gamma)^2 - 1); gamma = 0.5 gives sqrt(5) / 2
    assert snowman_waist_radius(0.5) == pytest.approx(math.sqrt(1.25),
                                                      abs=1e-15)
    with pytest.raises(ValueError):
        snowman_waist_radius(0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 3.0), st.floats(1e-6, 3.0))
def test_snowman_waist_monotone(g1, g2):
    lo, hi = sorted((g1, g2))
    assert snowman_waist_radius(lo) <= snowman_waist_radius(hi)


def test_snowman_descends_above_threshold():
    rep = snowman_descends_to_topography(SnowmanParams(0.5), n_max=200, k=16)
    assert rep.descends
    assert rep.waist_radius == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert rep.pointmass_radius == 1.0
    assert rep.spma_radius == 2.5
    assert rep.rc_estimate == pytest.approx(1.0, rel=0.05)


def test_snowman_stays_below_threshold():
    rep = snowman_descends_to_topography(SnowmanParams(0.3), n_max=200, k=16)
    assert not rep.descends


def test_snowman_threshold_gamma_does_not_descend():
    # waist exactly 1 at gamma = sqrt(2) - 1; strict comparison
    rep = snowman_descends_to_topography(
        SnowmanParams(math.sqrt(2.0) - 1.0), n_max=100, k=8)
    assert not rep.descends


def test_snowman_params_validation():
    with pytest.raises(ValueError):
        SnowmanParams(-0.1)
    with pytest.raises(ValueError):
        SnowmanParams(0.5, m1=0.0)
