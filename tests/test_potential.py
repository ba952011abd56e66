"""Shell-theorem potentials against quadrature oracles and closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gravharm import (PointMass, PointMasses, SPMA, SmoothedPointMass,
                      cosine_bump, evaluate_on_grid, lp_metric, oracle_clear,
                      potential_oracle, potential_point_masses, potential_spm,
                      potential_spma, quadratic_bump, table_profile,
                      total_mass)
from gravharm.density import _BLOCK, midpoint_nodes
from gravharm.potential import _point_mass_sums

from conftest import mixed_spma, unblocked_potential_point_masses, unit_ball_grid


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


def _random_masses(rng, n):
    return [PointMass(p, m) for p, m in
            zip(rng.uniform(-1, 1, (n, 3)), rng.uniform(0.1, 2.0, n))]


@pytest.mark.parametrize("n_masses", [1, 7, 1337])
def test_point_mass_blocks_match_unblocked_sum(n_masses):
    # 1337 masses: 24 points per block, the last block partial
    assert _BLOCK % n_masses or n_masses == 1
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
    pts[1500] = masses[42].position          # block 4 of 327-point blocks
    with pytest.raises(ZeroDivisionError):
        potential_point_masses(masses, pts)


@pytest.mark.parametrize("n_masses, n_points", [
    (_BLOCK + 5, 3),    # one point per block: three one-row blocks
    (1000, 70),         # 32-point blocks, the last one 6 rows of the buffers
])
def test_point_mass_buffer_edges_match_unblocked_sum(n_masses, n_points):
    rng = np.random.default_rng(n_masses + n_points)
    masses = _random_masses(rng, n_masses)
    pts = rng.uniform(-3, 3, (n_points, 3))
    assert np.array_equal(potential_point_masses(masses, pts, G=0.37),
                          unblocked_potential_point_masses(masses, pts, 0.37))


def test_point_mass_sums_are_nan_exactly_on_the_masses():
    # 1000 masses: 32-point blocks, so row 69 sits in the final 6-row block
    rng = np.random.default_rng(11)
    masses = _random_masses(rng, 1000)
    pts = rng.uniform(-3, 3, (70, 3))
    on_mass = np.zeros(len(pts), dtype=bool)
    for row, k in ((0, 5), (40, 999), (69, 123)):
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
    return np.array([cellvol * math.fsum(vals[mask] / np.linalg.norm(
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
        for G in (0.0, -1.0, float("nan")):
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
