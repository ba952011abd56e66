"""Shell-theorem potentials against quadrature oracles and closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gravharm import (GravConfig, PointMass, SPMA, SmoothedPointMass,
                      cosine_bump, evaluate_on_grid, potential_oracle,
                      potential_point_masses, potential_spm, potential_spma,
                      quadratic_bump, table_profile)
from gravharm.density import midpoint_nodes

from conftest import mixed_spma


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
    assert potential_point_masses(masses, x, GravConfig(6.674e-11)) == \
        pytest.approx(6.674e-11 * 0.5, rel=1e-15)


def test_point_mass_potential_singularity():
    masses = [PointMass((1, 2, 3), 1.0)]
    with pytest.raises(ZeroDivisionError):
        potential_point_masses(masses, np.array([1.0, 2.0, 3.0]))


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
        assert np.array_equal(potential_spma(spma, pts, GravConfig(G)),
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


def test_grav_config_validation():
    with pytest.raises(ValueError):
        GravConfig(0.0)
