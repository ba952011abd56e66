"""Shell-theorem potentials against quadrature oracles and closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gravharm import (PointMass, PointMasses, SPMA, SmoothedPointMass,
                      cosine_bump, evaluate, evaluate_on_grid, lp_metric,
                      oracle_clear, potential_oracle, potential_point_masses,
                      potential_spm, potential_spma, quadratic_bump,
                      table_profile, total_mass)
from gravharm import density as density_module
from gravharm import potential as potential_module
from gravharm.density import _BLOCK, _DISTANCE_BLOCK, _z_runs, midpoint_nodes
from gravharm.potential import _point_mass_sums, _subcell_mean

from conftest import (across_workers, mixed_spma,
                      unblocked_potential_point_masses, unit_ball_grid,
                      z_run_layouts)


def interior_oracle(profile, rho, G=1.0):
    """Independent 1-D quadrature of the classical interior split."""
    inner = 4 * math.pi * quad(lambda t: t * t * profile(t), 0, rho,
                               limit=200)[0]
    outer = 4 * math.pi * quad(lambda t: t * profile(t), rho,
                               profile.outer_radius, limit=200)[0]
    return G * (inner / max(rho, 1e-300) + outer) if rho > 0 \
        else G * outer


# ---------------------------------------------------------------------------
# point masses

def test_point_mass_potential_direct():
    masses = [PointMass((1, 0, 0), 2.0), PointMass((0, 0, -1), 3.0)]
    x = np.array([0.0, 2.0, 0.0])
    oracle = 2.0 / np.linalg.norm(x - [1, 0, 0]) \
        + 3.0 / np.linalg.norm(x - [0, 0, -1])
    assert potential_point_masses(masses, x) == pytest.approx(oracle,
                                                              rel=1e-15)


def test_point_mass_potential_scales_with_g():
    masses = [PointMass((0, 0, 0), 1.0)]
    x = np.array([2.0, 0, 0])
    assert potential_point_masses(masses, x, G=6.674e-11) == \
        pytest.approx(6.674e-11 * 0.5, rel=1e-15)


def test_point_mass_potential_singularity():
    masses = [PointMass((1, 2, 3), 1.0)]
    with pytest.raises(ZeroDivisionError):
        potential_point_masses(masses, np.array([1.0, 2.0, 3.0]))


_NON_FINITE = pytest.mark.parametrize("x, where", [
    ([math.nan, 0.0, 0.0], r"evaluation point \[nan, 0.0, 0.0\] is not"),
    ([[3.0, 0.0, 0.0], [0.0, math.inf, 1.0]],
     r"evaluation point 1 \[0.0, inf, 1.0\] is not finite"),
], ids=["nan-point", "infinite-row"])


@_NON_FINITE
def test_point_mass_potential_names_a_non_finite_point(x, where):
    # no mass sits at a non-finite point, so this is no ZeroDivisionError
    with pytest.raises(ValueError, match=where):
        potential_point_masses([PointMass((0, 0, 1), 1.0)], x)


@pytest.mark.parametrize("call", [
    lambda x: potential_spma(mixed_spma(), x),
    lambda x: potential_spm(mixed_spma().components[0], x),
    lambda x: evaluate(mixed_spma(), x),
    lambda x: evaluate(unit_ball_grid(8), x),
    lambda x: oracle_clear(mixed_spma(), x, resolution=8),
    lambda x: potential_oracle(mixed_spma(), x, resolution=8),
], ids=["spma", "spm", "evaluate-spma", "evaluate-grid", "oracle-clear",
        "oracle"])
@_NON_FINITE
def test_evaluations_name_a_non_finite_point(call, x, where):
    # unchecked, these gave nan or 0.0, and the oracle blamed clearance
    with pytest.raises(ValueError, match=where):
        call(x)


def _random_masses(rng, n):
    return [PointMass(p, m) for p, m in
            zip(rng.uniform(-1, 1, (n, 3)), rng.uniform(0.1, 2.0, n))]


@pytest.mark.parametrize("n_masses", [1, 7, 1337])
def test_point_mass_blocks_match_unblocked_sum(n_masses):
    # 1337 masses: 49 points per block, the last block partial
    assert _DISTANCE_BLOCK % n_masses or n_masses == 1
    rng = np.random.default_rng(n_masses)
    masses = _random_masses(rng, n_masses)
    pts = rng.uniform(-3, 3, (1000, 3))
    for G in (1.0, 0.37):
        expect = unblocked_potential_point_masses(masses, pts, G)
        assert np.array_equal(
            potential_point_masses(masses, pts, G=G), expect)
        assert np.array_equal(
            potential_point_masses(PointMasses.of(masses), pts, G=G),
            expect)
    v = potential_point_masses(masses, pts[17])
    assert isinstance(v, float)
    assert v == unblocked_potential_point_masses(masses, pts[17])[0]


def test_point_mass_singularity_in_a_later_block():
    rng = np.random.default_rng(3)
    masses = _random_masses(rng, 100)
    pts = rng.uniform(2, 3, (2000, 3))
    pts[1500] = masses[42].position          # block 3 of 655-point blocks
    with pytest.raises(ZeroDivisionError):
        potential_point_masses(masses, pts)


@pytest.mark.parametrize("n_masses, n_points", [
    (_BLOCK + 5, 3),    # one point per block: three one-row blocks
    (1000, 70),         # 32-point blocks, the last one 6 rows of the buffers
])
def test_point_mass_buffer_edges_match_unblocked_sum(monkeypatch, n_masses,
                                                     n_points):
    # blocks of _BLOCK distances keep the inputs small
    monkeypatch.setattr(density_module, "_DISTANCE_BLOCK", _BLOCK)
    rng = np.random.default_rng(n_masses + n_points)
    masses = _random_masses(rng, n_masses)
    pts = rng.uniform(-3, 3, (n_points, 3))
    assert np.array_equal(potential_point_masses(masses, pts, G=0.37),
                          unblocked_potential_point_masses(masses, pts, 0.37))


def test_point_mass_sums_are_nan_exactly_on_the_masses():
    # 1000 masses: 65-point blocks, so row 135 sits in the final 6-row
    # block
    rng = np.random.default_rng(11)
    masses = _random_masses(rng, 1000)
    pts = rng.uniform(-3, 3, (136, 3))
    on_mass = np.zeros(len(pts), dtype=bool)
    for row, k in ((0, 5), (70, 999), (135, 123)):
        pts[row] = masses[k].position
        on_mass[row] = True
    v = _point_mass_sums(PointMasses.of(masses), pts)
    assert np.array_equal(np.isnan(v), on_mass)
    assert np.array_equal(
        v[~on_mass], unblocked_potential_point_masses(masses, pts[~on_mass]))


# ---------------------------------------------------------------------------
# single smoothed point mass

def test_spm_exterior_is_point_mass_potential():
    spm = SmoothedPointMass((0.5, 0, 0), quadratic_bump(1.3, 0.7))
    for rho in (0.7, 1.0, 5.0):
        x = spm.center + np.array([0.0, rho, 0.0])
        assert potential_spm(spm, x) == pytest.approx(spm.mass / rho,
                                                      rel=1e-13)


def test_spm_center_value_closed_form():
    # [DERIVED] amplitude 1, a = 1: V(0) = 4 pi int_0^1 t (1 - t^2) dt = pi
    spm = SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))
    assert potential_spm(spm, np.zeros(3)) == pytest.approx(math.pi,
                                                            rel=1e-14)


@pytest.mark.parametrize("make", [
    lambda: quadratic_bump(1.5, 0.8),
    lambda: cosine_bump(0.9, 1.2),
    lambda: table_profile([0.0, 0.3, 0.8, 1.0], [2.0, 1.5, 1.5, 0.0]),
])
def test_spm_interior_matches_quadrature_oracle(make):
    spm = SmoothedPointMass((0.2, -0.1, 0.3), make())
    a = spm.radius
    for frac in (0.0, 0.2, 0.6, 0.95):
        rho = frac * a
        x = spm.center + np.array([0.0, 0.0, rho])
        # 1e-7: scipy's quad resolves the table profiles' kinks only to
        # about 1e-8 relative without segment-aware integration
        assert potential_spm(spm, x) == pytest.approx(
            interior_oracle(spm.profile, rho), rel=1e-7)


def test_spm_potential_continuous_at_rim():
    spm = SmoothedPointMass((0, 0, 0), cosine_bump(1.0, 1.0))
    inside = potential_spm(spm, np.array([0, 0, 1.0 - 1e-9]))
    outside = potential_spm(spm, np.array([0, 0, 1.0 + 1e-9]))
    assert inside == pytest.approx(outside, rel=1e-7)


def test_uniform_ball_interior_closed_form():
    # constant density rho0 on radius a: V = 2 pi G rho0 (a^2 - rho^2 / 3)
    rho0, a = 2.5, 1.3
    spm = SmoothedPointMass((0, 0, 0), table_profile(
        [0.0, a], [rho0, rho0], check_boundary=False))
    for frac in (0.0, 0.4, 0.9):
        rho = frac * a
        expect = 2 * math.pi * rho0 * (a * a - rho * rho / 3.0)
        assert potential_spm(spm, np.array([rho, 0, 0])) == pytest.approx(
            expect, rel=1e-14)


# ---------------------------------------------------------------------------
# arrays

def test_spma_potential_superposition():
    a = SmoothedPointMass((1, 0, 0), quadratic_bump(1.0, 1.5))
    b = SmoothedPointMass((-1, 0, 0), quadratic_bump(2.0, 1.5))
    arr = SPMA([a, b])
    x = np.array([0.0, 0.4, 0.2])
    assert potential_spma(arr, x) == pytest.approx(
        potential_spm(a, x) + potential_spm(b, x), rel=1e-15)


def test_spma_exterior_equals_point_mass_array():
    arr = SPMA([SmoothedPointMass((0.5, 0, 0), quadratic_bump(1.0, 0.4)),
                SmoothedPointMass((-0.5, 0, 0), cosine_bump(1.0, 0.4))])
    x = np.array([0.0, 3.0, 0.0])
    assert potential_spma(arr, x) == pytest.approx(
        potential_point_masses(arr.as_point_masses(), x), rel=1e-15)


# ---------------------------------------------------------------------------
# the batched code against the per-component loops it replaced, kept here
# as references: results must agree bit for bit

def _loop_potential_spma(spma, pts, G):
    out = np.zeros(len(pts))
    for spm in spma.components:
        rho = np.linalg.norm(pts - spm.center, axis=1)
        v = np.empty(len(rho))
        outside = rho >= spm.radius
        v[outside] = spm.mass / rho[outside]
        ri = rho[~outside]
        interior = np.empty(len(ri))
        at_center = ri == 0.0
        interior[at_center] = 4.0 * np.pi * spm.profile.tail_first_moment(0.0)
        r = ri[~at_center]
        interior[~at_center] = spm.profile.mass_within(r) / r \
            + 4.0 * np.pi * spm.profile.tail_first_moment(r)
        v[~outside] = interior
        out += v * G
    return out


def _loop_oracle(density, x, resolution, subcell):
    """The oracle averaging subcells over the whole fine grid at once."""
    lo, hi = density.bounding_box()
    axes, cellvol, _ = midpoint_nodes(lo, hi, resolution)
    fine_axes, _, fine_w = midpoint_nodes(lo, hi, resolution * subcell)
    fine = evaluate_on_grid(density, [a[0] for a in fine_axes], fine_w,
                            (resolution * subcell,) * 3)
    vals = fine.reshape(resolution, subcell, resolution, subcell,
                        resolution, subcell).mean(axis=(1, 3, 5))
    mask = vals > 0
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xx[mask], yy[mask], zz[mask]], axis=-1)
    return np.array([cellvol * np.sum(vals[mask] / np.linalg.norm(
        pts - xe, axis=1)) for xe in x])


def test_spma_potential_matches_component_loop():
    spma = mixed_spma()
    rng = np.random.default_rng(11)
    pts = np.vstack([rng.uniform(-1.2, 1.2, (4000, 3)), spma.centers,
                     spma.centers + spma.radii[:, None] * [1.0, 0.0, 0.0]])
    for G in (1.0, 0.37):
        assert np.array_equal(potential_spma(spma, pts, G=G),
                              _loop_potential_spma(spma, pts, G))
    spm = spma.components[2]
    assert np.array_equal(potential_spm(spm, pts),
                          _loop_potential_spma(SPMA([spm]), pts, 1.0))


def test_oracle_subcell_slabs_match_whole_fine_grid():
    spma = SPMA(mixed_spma().components[:8])
    x = np.array([[2.0, -1.5, 0.0], [-2.2, 2.0, -1.5], [0.0, 0.1, 2.4]])
    assert np.array_equal(potential_oracle(spma, x, resolution=24, subcell=3),
                          _loop_oracle(spma, x, 24, 3))


# ---------------------------------------------------------------------------
# brute-force oracle

@pytest.mark.parametrize("s", range(1, 10))
def test_subcell_mean_is_numpys_mean(s):
    # numpy's order: each run of s along the last axis, then the run sums
    # in axis-0, then axis-2 order; signed values of mixed magnitude show
    # any other order
    rng = np.random.default_rng(s)
    for n in (1, 2, 5, 16):
        for _ in range(3):
            shape = (s, n * s, n * s)
            fine = rng.uniform(-1, 1, shape) * 10.0 ** rng.uniform(-8, 8, shape)
            assert np.array_equal(_subcell_mean(fine, s), fine.reshape(
                s, n, s, n, s).mean(axis=(0, 2, 4)))


def _bench_ball_points():
    """The bench's shell-theorem points: 10 at radius 1.5 to 3."""
    rng = np.random.default_rng(99)
    return np.array([rng.uniform(1.5, 3.0) * (v / np.linalg.norm(v))
                     for v in rng.normal(size=(10, 3))])


@pytest.mark.parametrize("density, resolution, subcell, x", [
    # the bench's oracle: ~137k cells per sum
    (SPMA([SmoothedPointMass((0, 0, 0), table_profile(
        [0.0, 1.0], [2.0, 2.0], check_boundary=False))]), 64, 4,
     _bench_ball_points()),
    (mixed_spma(), 48, 2, np.array([[2.0, -1.5, 0.0], [-2.2, 2.0, -1.5],
                                    [0.0, 0.1, 2.4], [9.0, 0.0, 0.0]])),
], ids=["bench-ball", "mixed"])
def test_oracle_sums_are_within_1e14_of_math_fsum(monkeypatch, density,
                                                  resolution, subcell, x):
    # every cell term is positive, so numpy's pairwise sum stays within
    # about log2(cells) ulps of the exactly rounded sum; the terms are
    # read from the oracle's last distance pass, after its body divided
    passes = []
    each_block = potential_module._each_distance_block

    def spy(pts, positions, body):
        terms = {}
        passes.append(terms)

        def kept(p, d):
            body(p, d)
            terms.update(zip(p.tolist(), d.copy()))
        each_block(pts, positions, kept)
    monkeypatch.setattr(potential_module, "_each_distance_block", spy)
    v = potential_oracle(density, x, resolution=resolution, subcell=subcell)
    cellvol = midpoint_nodes(*density.bounding_box(), resolution)[1]
    terms = passes[-1]
    assert sorted(terms) == list(range(len(x)))
    assert all(np.all(t > 0) for t in terms.values())
    exact = np.array([cellvol * math.fsum(terms[i]) for i in range(len(x))])
    assert np.max(np.abs(v - exact) / exact) < 1e-14


def test_oracle_matches_shell_theorem_exterior():
    spm = SmoothedPointMass((0.1, 0.2, 0.0), quadratic_bump(1.0, 0.5))
    arr = SPMA([spm])
    x = np.array([1.5, 0.0, 0.0])
    assert potential_oracle(arr, x, resolution=96) == pytest.approx(
        potential_spm(spm, x), rel=2e-3)


def test_oracle_rejects_points_near_support():
    spm = SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 0.5))
    with pytest.raises(ValueError):
        potential_oracle(SPMA([spm]), np.array([0.5, 0.0, 0.0]),
                         resolution=32)


def test_g_must_be_positive():
    x = np.array([3.0, 0.0, 0.0])
    calls = [
        lambda G: potential_point_masses([PointMass((0, 0, 0), 1.0)], x, G=G),
        lambda G: potential_spma(mixed_spma(), x, G=G),
        lambda G: potential_spm(mixed_spma().components[0], x, G=G),
        lambda G: potential_oracle(mixed_spma(), x, G=G, resolution=8),
    ]
    for call in calls:
        for G in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="G must be positive"):
                call(G)


@pytest.mark.parametrize("call, name", [
    (lambda: potential_oracle(mixed_spma(), (3.0, 0, 0), subcell=0),
     "subcell"),
    (lambda: potential_oracle(mixed_spma(), (3.0, 0, 0), resolution=0),
     "resolution"),
    (lambda: oracle_clear(mixed_spma(), (3.0, 0, 0), resolution=-2),
     "resolution"),
    (lambda: oracle_clear(mixed_spma(), (3.0, 0, 0), resolution=0),
     "resolution"),
    (lambda: lp_metric(mixed_spma(), mixed_spma(), resolution=0),
     "resolution"),
], ids=["oracle-subcell-0", "oracle-resolution-0", "clear-resolution-neg",
        "clear-resolution-0", "lp-metric-resolution-0"])
def test_quadrature_counts_below_one_are_named(call, name):
    with pytest.raises(ValueError, match="%s must be at least 1" % name):
        call()


def test_oracle_clear_is_the_rule_the_oracle_enforces():
    spm = SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 0.5))
    spma = SPMA([spm])
    # box width 1 at resolution 20: h = 0.05, clearance beyond 0.1
    x = np.array([[0.59, 0, 0], [0.61, 0, 0], [0, 0, 2.0]])
    assert oracle_clear(spma, x, resolution=20).tolist() == [False, True, True]
    assert np.array_equal(potential_oracle(spma, x[1:], G=2.0, resolution=20),
                          2.0 * potential_oracle(spma, x[1:], resolution=20))
    with pytest.raises(ValueError):
        potential_oracle(spma, x, resolution=20)


# ---------------------------------------------------------------------------
# the oracle on a grid density

def test_oracle_on_a_grid_density_converges_at_second_order():
    g = unit_ball_grid(24)
    rng = np.random.default_rng(5)
    v = rng.normal(size=(6, 3))
    x = rng.uniform(1.5, 2.5, (6, 1)) * v / np.linalg.norm(v, axis=1)[:, None]
    exact = total_mass(g) / np.linalg.norm(x, axis=1)
    err = [float(np.max(np.abs(potential_oracle(g, x, resolution=n) - exact)
                        / exact)) for n in (32, 64)]
    # measured 2.1e-3 and 2.7e-4: halving h cuts the error at least 3x
    assert err[0] < 5e-3
    assert err[1] < err[0] / 3.0
    assert np.array_equal(potential_oracle(g, x, G=3.0, resolution=32),
                          3.0 * potential_oracle(g, x, resolution=32))


def test_oracle_on_a_grid_density_rejects_points_near_the_support():
    g = unit_ball_grid(24)
    nodes = g.origin + g.spacing * np.argwhere(g.values > 0)
    top = nodes[np.argmax(nodes[:, 2])]
    # h = 2 / 32: clearance needs more than 0.125 from every support node
    x = top + np.array([[0, 0, 0.1], [0, 0, 0.2]])
    assert oracle_clear(g, x, resolution=32).tolist() == [False, True]
    with pytest.raises(ValueError):
        potential_oracle(g, x[0], resolution=32)


# ---------------------------------------------------------------------------
# every core: each pooled loop against the inline one, bit for bit

def _same_bits(runs):
    return all(np.array_equal(v, runs[1], equal_nan=True) for v in runs)


def test_point_mass_sums_keep_their_bits_on_every_core(monkeypatch):
    # 1000 masses: 65-point blocks, so 460 points make 8 blocks, the last
    # of 5 rows, cut 4 + 4 on two workers and 2 + 3 + 3 on three
    rng = np.random.default_rng(21)
    masses = PointMasses.of(_random_masses(rng, 1000))
    pts = rng.uniform(-3, 3, (460, 3))
    pts[[3, 458]] = masses.positions[[10, 500]]       # 458: in the last run
    runs = across_workers(monkeypatch,
                          lambda: _point_mass_sums(masses, pts, G=0.37))
    assert _same_bits(runs)
    for v in runs:
        assert np.flatnonzero(np.isnan(v)).tolist() == [3, 458]


def test_point_mass_sums_test_only_infinite_rows_for_a_mass():
    # masses are positive, so a point on one sums to +inf and is the only
    # kind of row tested for a zero distance: a sum that overflows stays
    # +inf, and a point whose distance squares to zero counts as on the
    # mass, as the distance kernel sees it
    masses = PointMasses([[0.0, 0, 0], [1.0, 0, 0]], [1e300, 1.0])
    pts = np.array([[1e-10, 0, 0],          # 1e300 / 1e-10 overflows
                    [1.0, 0, 0],            # on the unit mass
                    [1.0 + 1e-310, 0, 0],   # rounds onto it
                    [0.0, 1e-170, 0],       # 1e-170 squares to zero
                    [0.0, 0, 0],            # on the heavy mass
                    [0.5, 0.5, 0]])
    with np.errstate(over="ignore"):
        v = _point_mass_sums(masses, pts)
    assert v[0] == np.inf
    assert np.flatnonzero(np.isnan(v)).tolist() == [1, 2, 3, 4]
    assert np.isfinite(v[5])


def _mixed_points(spma, seed):
    """26,310 points: 5 blocks of up to 6553 against the mixed SPMA's 10
    centers, the last holding those centers."""
    rng = np.random.default_rng(seed)
    return np.vstack([rng.uniform(-1.2, 1.2, (26300, 3)), spma.centers])


def test_spma_potential_keeps_its_bits_on_every_core(monkeypatch):
    spma = mixed_spma()
    pts = _mixed_points(spma, 22)
    runs = across_workers(monkeypatch, lambda: potential_spma(spma, pts))
    assert _same_bits(runs)
    assert np.array_equal(runs[0], _loop_potential_spma(spma, pts, 1.0))


def test_oracle_clear_keeps_its_bits_on_every_core(monkeypatch):
    spma, grid = mixed_spma(), unit_ball_grid(12)
    pts = _mixed_points(spma, 23)
    for density in (spma, grid):
        runs = across_workers(monkeypatch,
                              lambda: oracle_clear(density, pts, 32))
        assert _same_bits(runs)
        assert runs[0].any() and not runs[0].all()


@pytest.mark.parametrize("density, resolution, subcell", [
    (mixed_spma(), 32, 2),             # 1340 cells: 5 blocks of <= 48 points
    (SPMA([SmoothedPointMass((0.1, 0, 0), table_profile(
        [0.0, 0.7], [2.0, 2.0], check_boundary=False))]), 16, 3),   # 8 of 25
], ids=["mixed", "single-ball"])
def test_oracle_keeps_its_bits_on_every_core(monkeypatch, density,
                                             resolution, subcell):
    rng = np.random.default_rng(24)
    v = rng.normal(size=(200, 3))
    x = rng.uniform(8, 12, (200, 1)) * v / np.linalg.norm(v, axis=1)[:, None]
    runs = across_workers(monkeypatch, lambda: potential_oracle(
        density, x, resolution=resolution, subcell=subcell))
    assert _same_bits(runs)
    assert np.array_equal(runs[0], _loop_oracle(density, x, resolution,
                                                subcell))


# ---------------------------------------------------------------------------
# points in runs of equal z (sharing the distance kernel's terms) and the
# oracle's slabs of whole coarse layers: the same bits as before either

@pytest.mark.parametrize("layout", ["sphere-21-rings", "sphere-22-rings",
                                    "unequal-runs", "grid-z-slowest"])
def test_point_mass_sums_on_z_runs_match_unblocked_sum(monkeypatch, layout):
    # 200 masses in blocks of 2048 distances: chunks of 10 points
    monkeypatch.setattr(density_module, "_DISTANCE_BLOCK", 2048)
    rng = np.random.default_rng(50)
    x = z_run_layouts(rng)[layout]
    masses = _random_masses(rng, 200)
    on = [3, len(x) // 2, len(x) - 1]
    for row, k in zip(on, (0, 99, 199)):
        masses[k] = PointMass(x[row], masses[k].mass)
    assert _z_runs(x, len(masses)) is not None
    keep = np.ones(len(x), dtype=bool)
    keep[on] = False
    expect = unblocked_potential_point_masses(masses, x[keep], 0.37)
    for v in across_workers(monkeypatch, lambda: _point_mass_sums(
            PointMasses.of(masses), x, G=0.37)):
        assert np.flatnonzero(np.isnan(v)).tolist() == on
        assert np.array_equal(v[keep], expect)


def test_spma_potential_on_z_runs_matches_component_loop(monkeypatch):
    # the mixed SPMA's 10 centers in blocks of 160 distances: 16-point
    # chunks, and the rings' 42 points pass half a block
    monkeypatch.setattr(density_module, "_DISTANCE_BLOCK", 160)
    spma = mixed_spma()
    x = z_run_layouts(np.random.default_rng(51))["sphere-21-rings"]
    x = np.vstack([x * 0.6, x * 0.05])      # inside the supports too
    assert _z_runs(x, len(spma)) is not None
    for v in across_workers(monkeypatch, lambda: potential_spma(spma, x)):
        assert np.array_equal(v, _loop_potential_spma(spma, x, 1.0))


@pytest.mark.parametrize("resolution, subcell", [(20, 1), (12, 3)])
@pytest.mark.parametrize("layers", [1, 3, 7, 20])
def test_oracle_slabs_of_whole_layers_keep_the_bits(monkeypatch, resolution,
                                                    subcell, layers):
    # a budget of `layers` coarse layers' fine nodes makes slabs of that
    # many layers, the last one short where they do not divide the grid
    fine = subcell * (resolution * subcell) ** 2
    monkeypatch.setattr(potential_module, "_DISTANCE_BLOCK", layers * fine)
    spma = SPMA(mixed_spma().components[:8])
    x = np.array([[2.0, -1.5, 0.0], [-2.2, 2.0, -1.5], [0.0, 0.1, 2.4]])
    expect = _loop_oracle(spma, x, resolution, subcell)
    for v in across_workers(monkeypatch, lambda: potential_oracle(
            spma, x, resolution=resolution, subcell=subcell)):
        assert np.array_equal(v, expect)


def test_oracle_slabs_hold_whole_layers_within_the_node_budget(monkeypatch):
    # 2**16 fine nodes: 16 layers of 64^2 at subcell 1, 4 layers of 4 x
    # 64^2 at subcell 4, and one layer where a layer alone holds more, as
    # 4 x 160^2 here and 4 x 256^2 in the bench's shell-theorem oracle
    slabs = []
    grid_slab = potential_module._grid_slab

    def spy(density, origin, spacing, shape, start, stop):
        slabs.append((start, stop))
        return grid_slab(density, origin, spacing, shape, start, stop)
    monkeypatch.setattr(potential_module, "_grid_slab", spy)
    monkeypatch.setattr(density_module, "_WORKERS", 1)
    ball = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))])
    x = np.array([[3.0, 0.0, 0.0]])
    for resolution, subcell, layers in ((64, 1, 16), (16, 4, 4), (40, 4, 1)):
        slabs.clear()
        potential_oracle(ball, x, resolution=resolution, subcell=subcell)
        step = layers * subcell
        assert slabs == [(i, i + step)
                         for i in range(0, resolution * subcell, step)]
