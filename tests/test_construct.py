"""Greedy fillings, smoothed-array approximation, and the snowman family."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage
from scipy.signal import fftconvolve
from scipy.spatial import cKDTree

from gravharm import (ConstructionError, FillingBudgetError, FillingParams,
                      SnowmanParams, build_snowman, evaluate,
                      snowman_descends_to_topography, snowman_waist_radius,
                      spherical_filling, spma_approximate)

from gravharm import construct
from gravharm.construct import (BACKGROUND_FRACTION, COVER_RADIUS_STEPS,
                                FIT_ITERATIONS, _convolver, _cover_kernel,
                                _fit_background, _half_grid_values)
from gravharm.density import TABLE, GridDensity, _pow, evaluate_on_grid

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
    fvals = g.values[g.values > 0]
    covered = np.zeros(len(fvals), dtype=bool)
    for sel in exact_members(g, fill):
        covered[sel] = True
    resid = float(fvals[~covered].sum() * g.spacing**3)
    assert resid == fill.residual_mass == 0.0


def test_covering_is_a_support_blanket(ball_filling):
    g, fill = ball_filling
    nodes = g.origin + g.spacing * np.argwhere(g.values > 0)
    # one covering ball of radius 2h per support node, centered there
    assert len(fill.covering) == len(nodes)
    assert np.all(fill.covering.radii == 2 * g.spacing)
    tree = cKDTree(fill.covering.centers)
    d = tree.query(nodes, k=1)[0]
    assert np.max(d) == 0.0


def exact_members(g, fill):
    """The support nodes in each filling ball of g by brute force in
    int64: node k is in the ball of q half steps on node c iff
    4 |ijk[k] - ijk[c]|^2 <= q^2.  q is exact for the greedy balls, and
    0 or 1 for the sub-step ones, which hold their own node alone."""
    step = g.spacing / 2.0
    ijk = np.argwhere(fill.mask).astype(np.int64)
    cij = np.rint((fill.filling.centers - g.origin) / g.spacing).astype(np.int64)
    assert np.array_equal(g.origin + g.spacing * cij, fill.filling.centers)
    q = np.rint(fill.filling.radii / step).astype(np.int64)
    assert np.array_equal(fill.filling.radii[q >= 2], q[q >= 2] * step)
    return [np.flatnonzero(4 * np.sum(np.square(ijk - c), axis=1) <= k * k)
            for c, k in zip(cij, q)]


def test_tree_query_is_exact_lattice_membership():
    # integer coordinates and radii make the KD-tree's ball query decide
    # 4 |ijk - c|^2 <= q^2 exactly, nodes on the sphere included
    ax = np.arange(64)
    tree = cKDTree(2 * np.argwhere(np.ones((64, 64, 64), dtype=bool)))
    rng = np.random.default_rng(3)
    centers = rng.integers(0, 64, size=(300, 3))
    qs = rng.integers(1, 41, size=300)
    qs[::2] &= ~1       # an even q puts axis nodes on the sphere
    on_sphere = 0
    for c, q, got in zip(centers, qs, tree.query_ball_point(2 * centers, qs)):
        # 4 |ijk - c|^2 over the lattice, in np.argwhere's order
        d2 = 4 * (np.square(ax - c[0])[:, None, None]
                  + np.square(ax - c[1])[:, None] + np.square(ax - c[2])).ravel()
        assert np.array_equal(np.sort(got), np.flatnonzero(d2 <= q * q))
        on_sphere += np.count_nonzero(d2 == q * q)
    assert on_sphere > 1000


@pytest.mark.parametrize("n, graded", [(24, False), (20, True)],
                         ids=["ball-24", "graded-20"])
def test_incidence_is_exact_lattice_membership(n, graded):
    g = bench_ball(n, graded)
    fill = spherical_filling(g, FillingParams(delta=0.5, eps=0.5))
    assert [sorted(sel) for sel in np.split(fill.at, fill.starts[1:])] == \
        [list(sel) for sel in exact_members(g, fill)]
    # no support node is left without a ball
    assert fill.residual_mass == 0.0
    assert np.array_equal(np.unique(fill.at), np.arange(len(fill.fvals)))


def ball_nodes_and_radii(g, fill):
    """Each filling ball of g: its center on the tree's half-step lattice
    and its radius in half steps, q for a greedy ball, 0 for a sub-step
    one."""
    step = g.spacing / 2.0
    half = 2 * np.rint((fill.filling.centers - g.origin) / g.spacing)
    radii = fill.filling.radii
    return half, np.where(radii >= step, np.rint(radii / step), 0.0)


@pytest.mark.parametrize("n, graded", [(24, False), (20, True)],
                         ids=["ball-24", "graded-20"])
def test_incidence_is_in_a_single_point_query_order(n, graded):
    # the plateaus' np.add.reduceat sums each ball's nodes in this order
    g = bench_ball(n, graded)
    fill = spherical_filling(g, FillingParams(delta=0.5, eps=0.5))
    half, qs = ball_nodes_and_radii(g, fill)
    for sel, c, q in zip(np.split(fill.at, fill.starts[1:]), half, qs):
        assert np.array_equal(sel, fill.tree.query_ball_point(c, q))


def test_one_tree_query_per_greedy_ball(monkeypatch):
    # the variance cap and the incidence record come from the query that
    # places the ball while its room is at least 2 half steps; once the
    # room is below that, each ball has q = 1 and nothing queries the tree
    import scipy.spatial
    queried = []

    class CountingTree(scipy.spatial.cKDTree):
        def query_ball_point(self, x, *args, **kwargs):
            queried.append(np.array(x))
            return super().query_ball_point(x, *args, **kwargs)
    g, params = bench_ball(20, True), FillingParams(delta=0.5, eps=0.5)
    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    fill = spherical_filling(g, params)
    half, qs = ball_nodes_and_radii(g, fill)
    rooms = place_loop_filling(g, params)[-1]
    # the room only falls: here the first 299 of 2,347 phase-1 balls
    wide = rooms >= g.spacing
    n = int(wide.sum())
    assert np.all(wide[:n]) and len(rooms) == int(np.sum(qs > 0))
    assert (n, len(rooms)) == (299, 2347)
    assert np.array_equal(queried, half[:n])
    # the variance cap takes every greedy ball here down to one half
    # step, and sub-step balls follow the loop
    assert set(qs) == {0.0, 1.0}


@pytest.mark.parametrize("min_ball_steps, error", [
    (construct.MIN_BALL_STEPS, "ball budget exhausted before meeting a1"),
    # no sub-step balls: the residual is the mass no greedy ball covers
    (1.0, "a1: residual mass %.3g exceeds budget"),
], ids=["sub-step-balls", "greedy-only"])
def test_ball_budget_stops_the_one_half_step_end(monkeypatch,
                                                 min_ball_steps, error):
    # graded 20^3 places its first 299 balls by tree query, 2,048 after
    g = bench_ball(20, True)
    params = FillingParams(0.5, 0.5)
    monkeypatch.setattr(construct, "MAX_BALLS", 1000)
    monkeypatch.setattr(construct, "MIN_BALL_STEPS", min_ball_steps)
    if "%" in error:
        error %= place_loop_filling(g, params)[2]
    with pytest.raises(FillingBudgetError, match="^" + error):
        spherical_filling(g, params)


@pytest.mark.parametrize("below_step, budget", [(False, 0), (True, 1000)],
                         ids=["no-budget", "no-live-node"])
def test_one_step_balls_returns_none_and_keeps_the_rooms(below_step, budget):
    # nothing to place: the end of phase 1 returns no ball, lowers no room
    g = bench_ball(13, True)
    mask, ijk, _, r_sup = construct._support_arrays(g)
    nodes, step = g.origin + g.spacing * ijk, g.spacing / 2.0
    avail = np.minimum(r_sup, 0.99 * step) if below_step else r_sup.copy()
    before = avail.copy()
    assert np.any(avail >= step) != below_step
    placed = construct._one_step_balls(avail, mask, ijk, nodes, step, budget)
    assert placed.dtype == np.intp and placed.size == 0
    assert np.array_equal(avail, before)


def test_every_support_node_in_a_filling_ball_at_64():
    # the acceptance instance: a float distance put 90 of its support
    # nodes that lie exactly on a filling ball's sphere 1 ulp outside it
    fill = spherical_filling(unit_ball_grid(64),
                             FillingParams(delta=0.2, eps=0.2))
    assert fill.residual_mass == 0.0
    assert np.array_equal(np.unique(fill.at), np.arange(len(fill.fvals)))


def test_filling_budget_error_for_tiny_budget():
    g = unit_ball_grid(16)
    with pytest.raises(FillingBudgetError, match="a1"):
        spherical_filling(g, FillingParams(delta=1e-9, eps=1e-9))


def test_filling_params_validation():
    with pytest.raises(ValueError):
        FillingParams(delta=0.0, eps=0.1)
    for field in ("delta", "eps"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="%s must be positive and "
                                                 "finite" % field):
                FillingParams(**{"delta": 0.1, "eps": 0.1, field: value})
    # the filling runs on the density's own grid: the two budgets are
    # its only parameters
    assert [f.name for f in dataclasses.fields(FillingParams)] == \
        ["delta", "eps"]


# ---------------------------------------------------------------------------
# background fit

@pytest.mark.parametrize("shape", [(47, 47, 47), (20, 33, 26)])
def test_convolver_is_fftconvolve(shape):
    # the cached kernel transform changes no bit of the convolution, and
    # the crop the fit uses is fftconvolve's same mode
    K2 = _cover_kernel(COVER_RADIUS_STEPS, substeps=2)
    r = 2 * COVER_RADIUS_STEPS
    conv = _convolver(K2, shape)
    for seed in (0, 1):     # the second call reuses the kernel transform
        x = np.random.default_rng(seed).random(shape)
        full = conv(x)
        assert np.array_equal(full, fftconvolve(x, K2, mode="full"))
        assert np.array_equal(full[r:-r, r:-r, r:-r],
                              fftconvolve(x, K2, mode="same"))


def test_gram_kernel_is_fftconvolve():
    K2 = _cover_kernel(COVER_RADIUS_STEPS, substeps=2)
    assert np.array_equal(_convolver(K2, K2.shape)(K2),
                          fftconvolve(K2, K2, mode="full"))


def test_approximation_loads_no_scipy_signal():
    # the fit convolves through scipy.fft alone: importing scipy.signal
    # costs over a second in a fresh process
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(construct.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from conftest import "
         "unit_ball_grid; from gravharm import FillingParams, "
         "spma_approximate; spma_approximate(unit_ball_grid(16), "
         "FillingParams(delta=0.7, eps=0.7)); "
         "print('scipy.signal' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
        capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def padded_lattice_fit(vals, mask, beta):
    """The background fit's half-step loop as it ran before it moved to the
    node grid, on the lattice padded by 2h, so that its same-mode residual
    covers the rim outside the grid box; kept as the reference for the
    node-grid fit.  Returns the amplitudes."""
    pad = 2 * COVER_RADIUS_STEPS    # half steps
    K1 = _cover_kernel(COVER_RADIUS_STEPS)
    ind = (K1 > 0).astype(float)
    meanf = ndimage.convolve(vals, ind, mode="constant") / float(ind.sum())
    node_pad = pad // 2
    cap = np.pad(np.where(mask, 0.9 * np.maximum(meanf, 0.0), 0.0), node_pad)
    K2 = _cover_kernel(COVER_RADIUS_STEPS, substeps=2)
    denom = float(fftconvolve(K2, K2, mode="full")[::2, ::2, ::2].sum())
    target = np.pad(beta * _half_grid_values(vals), pad)
    w = np.minimum(np.pad(np.where(mask, beta * vals, 0.0), node_pad)
                   / float(K1.sum()), cap)
    up = np.zeros(target.shape)
    for _ in range(FIT_ITERATIONS):
        up[...] = 0.0
        up[::2, ::2, ::2] = w
        bg_half = fftconvolve(up, K2, mode="same")
        grad = fftconvolve(target - bg_half, K2, mode="same")[::2, ::2, ::2]
        w = np.clip(w + grad / denom, 0.0, cap)
    inner = slice(node_pad, w.shape[0] - node_pad)
    return w[inner, inner, inner]


def ball_values(n, graded):
    """The unit ball on an n^3 grid over [-1, 1]^3: 1, or 1.5 - r^2."""
    ax = -1.0 + 2.0 / (n - 1) * np.arange(n)
    r2 = np.sum(np.square(np.meshgrid(ax, ax, ax, indexing="ij")), axis=0)
    return np.where(r2 <= 1.0, 1.5 - r2 if graded else 1.0, 0.0)


@pytest.mark.parametrize("n,graded", [(20, True), (24, False)])
def test_node_grid_fit_matches_padded_lattice_reference(n, graded):
    vals = ball_values(n, graded)
    mask = vals > 0
    w, bg, _, fit = _fit_background(vals, mask, BACKGROUND_FRACTION)
    ref = padded_lattice_fit(vals, mask, BACKGROUND_FRACTION)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(ref)
    # the reported residual is |t - A w| / |t| over the padded lattice
    K2 = _cover_kernel(COVER_RADIUS_STEPS, substeps=2)
    target = BACKGROUND_FRACTION * _half_grid_values(vals)
    up = np.zeros(target.shape)
    up[::2, ::2, ::2] = w
    Aw = fftconvolve(up, K2, mode="full")
    r = 2 * COVER_RADIUS_STEPS
    resid = np.linalg.norm(np.pad(target, r) - Aw) / np.linalg.norm(target)
    assert fit == {"iterations": FIT_ITERATIONS,
                   "relative_residual": pytest.approx(resid, rel=1e-12)}
    assert np.array_equal(bg, Aw[r:-r:2, r:-r:2, r:-r:2])


def place_loop_filling(f, params):
    """spherical_filling's balls by the loop that ran before the active
    nodes were kept as compacted arrays: every ball gathers the active
    nodes, takes np.linalg.norm and scatters the gaps back, here with
    membership and the variance cap by brute force in int64; kept as
    the reference.  Returns the filling's centers and radii, its residual
    mass, the largest oscillation of f over a phase-1 ball's nodes, how
    many balls the variance cap shrank, and the room each phase-1 ball
    was placed at."""
    _, ijk, fvals, r_sup = construct._support_arrays(f)
    h = f.spacing
    nodes = f.origin + h * ijk
    cell = h**3
    a2_bound = min(params.delta, params.eps) / (10.0 * len(nodes) * cell)
    min_r = construct.MIN_BALL_STEPS * h
    step = h / 2.0
    need_var_cap = float(fvals.max() - fvals.min()) >= a2_bound
    active = np.arange(len(nodes))
    gap = np.full(len(nodes), np.inf)
    centers, radii, rooms = [], [], []
    max_ball_var, capped = 0.0, 0
    while len(radii) < construct.MAX_BALLS and active.size:
        avail = np.minimum(r_sup[active], gap[active])
        i = int(np.argmax(avail))
        q = math.floor(avail[i] / step)
        if q < 1:
            break
        c = active[i]
        d2 = 4 * np.sum(np.square(ijk - ijk[c]), axis=1)
        if need_var_cap:
            q0 = q
            while q > 1 and np.ptp(fvals[d2 <= q * q]) >= a2_bound:
                q -= 1
            capped += q < q0
        max_ball_var = max(max_ball_var, float(np.ptp(fvals[d2 <= q * q])))
        r = q * step
        d = np.linalg.norm(nodes[active] - nodes[c], axis=1)
        gap[active] = np.minimum(gap[active], d - r)
        active = active[d2[active] > q * q]
        centers.append(nodes[c])
        radii.append(r)
        rooms.append(avail[i])
    r_e = np.minimum(np.minimum(r_sup[active], gap[active]), 0.495 * h) * 0.99
    keep = r_e >= min_r
    residual = float(fvals[active[~keep]].sum() * cell)
    return (np.vstack([np.reshape(centers, (-1, 3)), nodes[active[keep]]]),
            np.concatenate([radii, r_e[keep]]), residual, max_ball_var,
            capped, np.array(rooms))


@pytest.mark.parametrize("n, graded, budget, min_ball_steps, caps", [
    # the bench's two balls
    (24, False, 0.5, construct.MIN_BALL_STEPS, False),
    (20, True, 0.5, construct.MIN_BALL_STEPS, True),
    (13, True, 0.5, construct.MIN_BALL_STEPS, True),
    # sub-step balls of radius 0.02 and up (h = 2 / 19)
    (20, True, 0.5, 0.19, True),
    (12, True, 6.0, construct.MIN_BALL_STEPS, True),
    # q >= 2 balls, capped and not, then the one-half-step end
    (24, True, 10.0, construct.MIN_BALL_STEPS, True),
], ids=["ball-24", "graded-20", "graded-13", "min-ball-radius",
        "graded-12-wide", "graded-24-wide"])
def test_compacted_filling_matches_place_loop(monkeypatch, n, graded, budget,
                                              min_ball_steps, caps):
    monkeypatch.setattr(construct, "MIN_BALL_STEPS", min_ball_steps)
    params = FillingParams(delta=budget, eps=budget)
    g = GridDensity((-1.0, -1.0, -1.0), 2.0 / (n - 1), ball_values(n, graded))
    fill = spherical_filling(g, params)
    assert np.array_equal(g.values, ball_values(n, graded))   # not mutated
    centers, radii, residual, max_ball_var, capped, _ = \
        place_loop_filling(g, params)
    assert np.array_equal(fill.filling.centers, centers)
    assert np.array_equal(fill.filling.radii, radii)
    assert (fill.residual_mass, fill.max_ball_var) == (residual, max_ball_var)
    # f that varies takes the variance cap
    assert (capped > 0) == caps


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


def bench_ball(n, graded):
    return GridDensity((-1.0, -1.0, -1.0), 2.0 / (n - 1),
                       ball_values(n, graded))


def ball_queries(g, filling):
    """Each filling ball's support-node list by exact lattice membership,
    from one query per ball set on a tree like the filling's over g's
    support, in the order of a single-point query."""
    step = g.spacing / 2.0
    half = 2 * np.rint((filling.filling.centers - g.origin) / g.spacing)
    return cKDTree(2 * np.argwhere(filling.mask)).query_ball_point(
        half, np.rint(filling.filling.radii / step), return_sorted=False)


@pytest.mark.parametrize("n, graded", [(24, False), (20, True), (13, True)],
                         ids=["ball-24", "graded-20", "graded-13"])
def test_plateaus_match_per_ball_mean(monkeypatch, n, graded):
    # the plateaus as the per-ball np.mean loop set them before they
    # became one segment sum; numpy's pairwise sum and reduceat's
    # sequential one agree bit for bit below 8 terms
    seen = []
    shrink = construct._shrink_extremal

    def spy(parts, *args):
        seen.append(parts.copy())
        return shrink(parts, *args)
    monkeypatch.setattr(construct, "_shrink_extremal", spy)
    g = bench_ball(n, graded)
    res = spma_approximate(g, FillingParams(delta=0.5, eps=0.5))
    fill = res.filling.filling
    amp = seen[0]["value"][:len(fill)]
    mask = g.values > 0
    nodes, fvals = res.filling.covering.centers, g.values[mask]
    lam_bg = _fit_background(g.values, mask, BACKGROUND_FRACTION)[1][mask]
    amp_floor = 1e-12 * max(float(fvals.max()), 1.0)
    in_ball = ball_queries(g, res.filling)
    ref = np.array([max(float(np.mean(fvals[sel] - lam_bg[sel])), amp_floor)
                    for sel in in_ball])
    # every ball is centered on a support node, so it holds that node
    assert all((nodes[sel] == c).all(axis=1).any()
               for sel, c in zip(in_ball, fill.centers))
    # the graded balls' variance cap leaves every ball below 8 nodes
    small = np.array([len(sel) < 8 for sel in in_ball])
    assert small.all() == graded
    assert np.array_equal(amp[small], ref[small])
    assert np.all(np.abs(amp - ref) <= 1e-13 * np.abs(ref))


def per_ball_a7(spma, g, filling, params, tags):
    """a7's (worst_excess, worst_excess_component_alone) by the loop that
    made one profile call per owned filling ball; kept as the reference
    for the segment sums."""
    mask = g.values > 0
    nodes, fvals, cell = filling.covering.centers, g.values[mask], g.spacing**3
    lam = evaluate_on_grid(spma, g.origin, g.spacing, g.shape)
    fdiff = np.abs(g.values - lam)[mask]
    n_fill = len(filling.filling)
    filled = np.flatnonzero(tags >= 0)
    own = np.full(n_fill, -1)
    own[tags[filled]] = filled
    own[np.bincount(tags[filled], minlength=n_fill) != 1] = -1
    vols = 4.0 / 3.0 * np.pi * _pow(filling.filling.radii, 3)
    slack_total = min(params.delta, params.eps) / 10.0
    worst = worst_lit = -np.inf
    for j, sel in enumerate(ball_queries(g, filling)):
        if not sel:
            continue
        var = float(fvals[sel].max() - fvals[sel].min())
        slack = slack_total * vols[j] / vols.sum()
        err = float(fdiff[sel].sum() * cell)
        worst = max(worst, err - (var * vols[j] + slack))
        if own[j] >= 0:
            d = np.linalg.norm(nodes[sel] - spma.centers[own[j]], axis=1)
            g_own = spma.profile(np.full(len(d), own[j]), d)
            err_lit = float(np.abs(fvals[sel] - g_own).sum() * cell)
            worst_lit = max(worst_lit, err_lit - (var * vols[j] + slack))
    return worst, worst_lit


def approximate_and_verify_args(monkeypatch, g, params):
    """spma_approximate's result and the arguments it hands _verify."""
    seen = []
    verify = construct._verify

    def spy(*args):
        seen.append(args)
        return verify(*args)
    monkeypatch.setattr(construct, "_verify", spy)
    res = spma_approximate(g, params)
    monkeypatch.undo()
    return res, seen[0]


def a7_and_per_ball_loop(monkeypatch, n, graded):
    """a7's two figures from the report and from per_ball_a7."""
    res, (spma, g, filling, params, *_, tags) = approximate_and_verify_args(
        monkeypatch, bench_ball(n, graded), FillingParams(delta=0.5, eps=0.5))
    a7 = res.report["a7"]
    return ((a7["worst_excess"], a7["worst_excess_component_alone"]),
            per_ball_a7(spma, g, filling, params, tags))


def test_a7_batched_profile_matches_per_ball_loop(monkeypatch):
    a7, ref = a7_and_per_ball_loop(monkeypatch, 20, True)
    assert a7 == ref


def test_a7_matches_per_ball_loop_on_constant_ball(monkeypatch):
    # its central ball holds 4,945 nodes, whose sums change order
    a7, ref = a7_and_per_ball_loop(monkeypatch, 24, False)
    assert a7 == pytest.approx(ref, rel=1e-12)


def tilted_ball():
    """The 16^3 unit ball tilted by 1e-4 along x: f varies by less than
    a2's bound, so the filling takes no variance cap, and some filling
    balls see var > 0 (on every bench ball var is 0 on every ball)."""
    tilt = 1.0 + 1e-4 * np.linspace(-1.0, 1.0, 16)[:, None, None]
    return GridDensity((-1.0, -1.0, -1.0), 2.0 / 15,
                       ball_values(16, False) * tilt)


def test_a2_measures_every_filling_ball():
    g = tilted_ball()
    res = spma_approximate(g, FillingParams(delta=0.7, eps=0.7))
    fvals = g.values[g.values > 0]
    assert np.ptp(fvals) < res.filling.a2_bound
    var = np.array([np.ptp(fvals[sel])
                    for sel in ball_queries(g, res.filling)])
    assert np.array_equal(res.filling.ball_var, var)
    a2 = res.report["a2"]
    assert a2["max_ball_var"] == res.filling.max_ball_var == var.max() > 0
    assert a2["pass"] and a2["bound"] == res.filling.a2_bound


def test_one_kd_tree_over_the_support_nodes(monkeypatch):
    # the filling's tree serves its variance cap, the ball-to-node
    # incidence and p4's nearest-node query
    import scipy.spatial
    tree_type, built = scipy.spatial.cKDTree, []

    def counting(data, *args, **kwargs):
        built.append(np.array(data))
        return tree_type(data, *args, **kwargs)
    monkeypatch.setattr(scipy.spatial, "cKDTree", counting)
    res = spma_approximate(bench_ball(20, True),
                           FillingParams(delta=0.5, eps=0.5))
    half = 2 * np.argwhere(res.filling.mask)
    assert sum(np.array_equal(b, half) for b in built) == 1
    assert np.array_equal(res.filling.tree.data, half)


def test_a7_component_alone_counts_owned_balls_only(monkeypatch):
    # a filling ball whose component was split, or that lost it, is left
    # out of the component-alone figure; with one ball owned at a time
    # the figure is that ball's own, and with none it is -inf.  On the
    # tilted ball some balls see var > 0
    g = tilted_ball()
    _, (spma, _, filling, params, meanf, tags) = approximate_and_verify_args(
        monkeypatch, g, FillingParams(delta=0.7, eps=0.7))
    fvals = g.values[g.values > 0]
    var = np.array([np.ptp(fvals[sel]) for sel in ball_queries(g, filling)])
    assert np.count_nonzero(var) > 1
    filled = np.flatnonzero(tags >= 0)
    for j in [*np.argsort(var)[-3:], len(var) - 1, None]:
        # every other filling part stands for ball 0 (ball 1 when j is
        # 0), which then has many
        t = tags.copy()
        t[filled] = 1 if j == 0 else 0
        if j is not None:
            t[filled[tags[filled] == j]] = j
        a7 = construct._verify(spma, g, filling, params, meanf, t)["a7"]
        ref = per_ball_a7(spma, g, filling, params, t)
        assert (a7["worst_excess"], a7["worst_excess_component_alone"]) == \
            pytest.approx(ref, rel=1e-12)
        assert (ref[1] == -np.inf) == (j is None)


def test_a8_compares_each_covering_part_with_its_own_node():
    # eps = 0.3 puts the extremal covering ball (radius 2h = 0.21) above
    # eps / 2, so it is split into tapers that keep its node's amplitude
    g = unit_ball_grid(20)
    res = spma_approximate(g, FillingParams(delta=0.5, eps=0.3))
    spma, n_nodes = res.spma, len(res.filling.covering)
    cover = np.arange(len(res.filling.filling), len(spma))
    q_split = np.flatnonzero(spma.kinds[cover] == TABLE)
    assert len(q_split) > 1 and len(cover) == n_nodes + len(q_split) - 1
    # the split parts stand in one block for one node, in node order
    q = np.arange(len(cover))
    node = q - np.clip(q - q_split[0], 0, len(q_split) - 1)
    # node mean of f over the 3x3x3 stencil of a covering ball
    mask = g.values > 0
    meanf = ndimage.convolve(g.values, np.ones((3, 3, 3)),
                             mode="constant")[mask] / 27.0
    amp = spma.profile(cover, np.zeros(len(cover)))
    a8 = res.report["a8"]
    assert a8["pass"]
    assert a8["worst_excess"] == pytest.approx(np.max(amp - meanf[node]),
                                               abs=1e-12)


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
    spma = build_snowman(SnowmanParams(0.2, m1=2.0, m2=3.0))
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


@pytest.mark.parametrize("field", ["gamma", "m1", "m2"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0])
def test_snowman_params_name_the_field_that_is_not_positive_and_finite(
        field, value):
    with pytest.raises(ValueError, match="%s must be positive and finite, "
                                         "got %r" % (field, value)):
        SnowmanParams(**{"gamma": 0.5, "m1": 1.0, "m2": 1.0, field: value})
