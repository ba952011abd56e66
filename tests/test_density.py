"""Radial profiles, mass models, grids, metrics, and file round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gravharm import (GridDensity, PointMass, SPMA, SmoothedPointMass,
                      WeightFn, constant_taper, cosine_bump, evaluate,
                      evaluate_on_grid, load_spma, lp_metric, mean_over,
                      quadratic_bump, save_spma, table_profile, total_mass,
                      var_over)
from gravharm.geometry import Ball

from conftest import mixed_spma


# ---------------------------------------------------------------------------
# profiles: closed-form integrals against quadrature oracles

def test_quadratic_bump_total_mass_closed_form():
    # [DERIVED] 4 pi * int_0^1 t^2 (1 - t^2) dt = 4 pi (1/3 - 1/5) = 8 pi / 15
    p = quadratic_bump(1.0, 1.0)
    assert p.total_mass() == pytest.approx(8.0 * math.pi / 15.0, rel=1e-15)


@pytest.mark.parametrize("make", [
    lambda: quadratic_bump(2.0, 1.3),
    lambda: cosine_bump(0.7, 2.1),
    lambda: constant_taper(1.5, 1.0, 0.2),
    lambda: table_profile([0.0, 0.4, 0.9, 1.2], [1.0, 0.8, 0.8, 0.0]),
])
def test_mass_within_matches_quadrature(make):
    p = make()
    for s in [0.1, 0.5, 0.9 * p.outer_radius, p.outer_radius]:
        oracle = 4.0 * math.pi * quad(lambda t: t * t * p(t), 0.0, s,
                                      limit=200)[0]
        assert p.mass_within(s) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("make", [
    lambda: quadratic_bump(2.0, 1.3),
    lambda: cosine_bump(0.7, 2.1),
    lambda: constant_taper(1.5, 1.0, 0.2),
])
def test_tail_first_moment_matches_quadrature(make):
    p = make()
    a = p.outer_radius
    for rho in [0.0, 0.3 * a, 0.8 * a, a]:
        oracle = quad(lambda t: t * p(t), rho, a, limit=200)[0]
        assert p.tail_first_moment(rho) == pytest.approx(oracle, abs=1e-10)


def test_profile_vanishes_at_rim_and_outside():
    for p in (quadratic_bump(1.0, 2.0), cosine_bump(1.0, 2.0),
              constant_taper(1.0, 2.0, 0.5)):
        assert p(2.0) == pytest.approx(0.0, abs=1e-15)
        assert p(2.5) == 0.0
        assert p(-0.1) == 0.0


def test_profile_validation_errors():
    with pytest.raises(ValueError):
        quadratic_bump(-1.0, 1.0)
    with pytest.raises(ValueError):
        quadratic_bump(1.0, 0.0)
    with pytest.raises(ValueError):
        table_profile([0.0, 1.0], [1.0, 0.5])      # does not vanish at rim
    table_profile([0.0, 1.0], [1.0, 0.5], check_boundary=False)
    with pytest.raises(ValueError):
        table_profile([0.0, 0.5, 0.4], [1.0, 1.0, 0.0])  # non-monotone knots
    with pytest.raises(ValueError):
        constant_taper(1.0, 1.0, 1.5)


def test_mass_within_is_monotone():
    p = cosine_bump(1.0, 1.0)
    s = np.linspace(0, 1, 50)
    assert np.all(np.diff(p.mass_within(s)) >= 0)


# ---------------------------------------------------------------------------
# mass models

def test_spm_mass_and_point_mass_equivalent():
    spm = SmoothedPointMass((1, 2, 3), quadratic_bump(1.0, 1.0))
    pm = spm.as_point_mass()
    assert pm.mass == pytest.approx(8.0 * math.pi / 15.0)
    assert np.array_equal(pm.position, spm.center)
    assert spm.support_ball().radius == 1.0


def test_point_mass_must_be_positive():
    with pytest.raises(ValueError):
        PointMass((0, 0, 0), 0.0)


def test_spma_superposition_pointwise():
    a = SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))
    b = SmoothedPointMass((0.5, 0, 0), cosine_bump(2.0, 1.0))
    arr = SPMA([a, b])
    x = np.array([0.3, 0.1, -0.2])
    assert evaluate(arr, x) == pytest.approx(evaluate(a, x) + evaluate(b, x))
    assert total_mass(arr) == pytest.approx(a.mass + b.mass)


def test_evaluate_on_grid_matches_pointwise():
    arr = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 0.8)),
                SmoothedPointMass((0.4, 0.2, 0), cosine_bump(1.5, 0.5))])
    origin, h, shape = np.array([-1.0, -1.0, -1.0]), 0.25, (9, 9, 9)
    grid = evaluate_on_grid(arr, origin, h, shape)
    ax = [origin[d] + h * np.arange(shape[d]) for d in range(3)]
    pts = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    assert np.allclose(grid.ravel(), evaluate(arr, pts), atol=1e-14)


# ---------------------------------------------------------------------------
# grid densities

def test_grid_density_trilinear_midpoint():
    vals = np.zeros((2, 2, 2))
    vals[1, 1, 1] = 8.0
    g = GridDensity((0, 0, 0), 1.0, vals)
    # trilinear value at the cell center is the node average
    assert evaluate(g, np.array([0.5, 0.5, 0.5])) == pytest.approx(1.0)
    assert evaluate(g, np.array([5.0, 0.0, 0.0])) == 0.0


def test_grid_density_rejects_disconnected_support():
    vals = np.zeros((5, 5, 5))
    vals[0, 0, 0] = 1.0
    vals[4, 4, 4] = 1.0
    with pytest.raises(ValueError):
        GridDensity((0, 0, 0), 1.0, vals)


def test_grid_density_rejects_negative_values():
    with pytest.raises(ValueError):
        GridDensity((0, 0, 0), 1.0, -np.ones((2, 2, 2)))


def test_grid_total_mass_node_sum():
    vals = np.ones((3, 3, 3))
    g = GridDensity((0, 0, 0), 0.5, vals)
    assert total_mass(g) == pytest.approx(27 * 0.5**3)


def test_grid_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.5, 1.0, (4, 5, 6))
    g = GridDensity((-0.3, 0.1, 0.2), 0.37, vals)
    path = tmp_path / "g.grid"
    g.save(path)
    g2 = GridDensity.load(path)
    assert np.array_equal(g2.values, g.values)
    assert g2.spacing == g.spacing
    assert np.array_equal(g2.origin, g.origin)


# ---------------------------------------------------------------------------
# metrics

def test_lp_metric_identity_and_symmetry():
    f = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))])
    g = SPMA([SmoothedPointMass((0.2, 0, 0), cosine_bump(1.0, 1.0))])
    assert lp_metric(f, f) == 0.0
    assert lp_metric(f, g) == pytest.approx(lp_metric(g, f), rel=1e-14)


def test_lp_metric_against_total_mass():
    # mu_1(f, 0) is the integral of |f|, i.e. the total mass
    f = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))])
    assert lp_metric(f, 0, resolution=96) == pytest.approx(
        total_mass(f), rel=2e-3)


def test_lp_metric_sup_norm():
    f = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(2.0, 1.0))])
    assert lp_metric(f, 0, p=np.inf, resolution=65) == pytest.approx(
        2.0, rel=1e-2)


def test_lp_metric_weighted_constant_scales():
    f = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))])
    base = lp_metric(f, 0, resolution=32)
    scaled = lp_metric(f, 0, w=WeightFn("constant", (3.0,)), resolution=32)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_lp_metric_truncation():
    f = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))])
    assert lp_metric(f, 0, trunc_N=2.0, resolution=64) == pytest.approx(
        lp_metric(f, 0, resolution=64), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(0.3, 1.5))
def test_lp_metric_amplitude_linearity(amp, a):
    f = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(amp, a))])
    unit = SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, a))])
    assert lp_metric(f, 0, resolution=24) == pytest.approx(
        amp * lp_metric(unit, 0, resolution=24), rel=1e-10)


def test_var_and_mean_over_constant_region():
    f = SPMA([SmoothedPointMass(
        (0, 0, 0), constant_taper(2.0, 1.0, 0.1))])
    K = Ball((0, 0, 0), 0.4)           # inside the constant plateau
    assert var_over(f, K) == pytest.approx(0.0, abs=1e-14)
    assert mean_over(f, K) == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# SPMA file format

def test_spma_save_load_round_trip(tmp_path):
    arr = SPMA([
        SmoothedPointMass((0.1, -0.2, 0.3), quadratic_bump(1.25, 0.75)),
        SmoothedPointMass((1.0, 0.0, 0.0), cosine_bump(0.5, 0.25)),
        SmoothedPointMass((0.0, 1.0, 0.0), constant_taper(2.0, 0.5, 0.1)),
    ])
    path = tmp_path / "a.spma"
    save_spma(arr, path)
    arr2 = load_spma(path)
    assert np.array_equal(arr2.centers, arr.centers)
    assert np.array_equal(arr2.radii, arr.radii)
    assert np.allclose(arr2.masses, arr.masses, rtol=1e-15)


@pytest.mark.parametrize("line", [
    "0 0 0 1 bogus_kind 1",
    "inf 0 0 1 quadratic_bump 1",
    "0 0 0 0.1 quadratic_bump 1 7 7",
    "0 0 0 1 cosine_bump",
    "0 0 0 -1 quadratic_bump 1",
    "0 0 0 1 cosine_bump -2",
    "0 0 0 1 table 0 1 1",
    "0 0 0 1 table 0.1 1 1 0",
    "0 0 0 1 table 0 0.6 0.5 1 1 1 1 0",
    "0 0 0 1 table 0 1 -1 0",
    "0 0 0 1 table 0 1 0 0",
], ids=["unknown-kind", "nonfinite-center", "extra-tokens", "no-amplitude",
        "negative-radius", "negative-amplitude", "odd-table", "knots-span",
        "knots-decrease", "negative-value", "no-mass"])
def test_load_spma_reports_line_numbers(tmp_path, line):
    path = tmp_path / "bad.spma"
    path.write_text("0 0 0 1 quadratic_bump 1\n%s\n0 0 0 1 cosine_bump 1\n"
                    % line)
    with pytest.raises(ValueError, match="line 2"):
        load_spma(path)


# ---------------------------------------------------------------------------
# the batched SPMA code against the per-component loops it replaced, kept
# here as references: results must agree bit for bit

def _loop_evaluate(spma, pts):
    out = np.zeros(len(pts))
    for comp in spma.components:
        d = np.linalg.norm(pts - comp.center, axis=1)
        m = d <= comp.radius
        if m.any():
            out[m] += comp.profile(d[m])
    return out


def _loop_evaluate_on_grid(spma, origin, spacing, shape):
    origin = np.asarray(origin, dtype=float)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (3,))
    out = np.zeros(shape)
    for comp in spma.components:
        lo = np.ceil((comp.center - comp.radius - origin) / spacing).astype(int)
        hi = np.floor((comp.center + comp.radius - origin) / spacing).astype(int)
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, np.array(shape) - 1)
        if np.any(hi < lo):
            continue
        ax = [origin[d] + spacing[d] * np.arange(lo[d], hi[d] + 1)
              for d in range(3)]
        dx = ax[0][:, None, None] - comp.center[0]
        dy = ax[1][None, :, None] - comp.center[1]
        dz = ax[2][None, None, :] - comp.center[2]
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        mask = dist <= comp.radius
        if mask.any():
            block = out[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1]
            block[mask] += comp.profile(dist[mask])
    return out


def _loop_save(spma, path):
    with open(path, "w") as fh:
        for c in spma.components:
            p = c.profile
            tokens = (["table"] + ["%.17g" % v for v in p.knots]
                      + ["%.17g" % v for v in p.values] if p.kind == "table"
                      else [p.kind, "%.17g" % p.amplitude])
            fields = ["%.17g" % v for v in c.center] + ["%.17g" % c.radius]
            fh.write(" ".join(fields + tokens) + "\n")


@pytest.fixture(params=["objects", "loaded"])
def mixed(request, tmp_path):
    """The mixed SPMA built from objects, or read back from its file (its
    components then built from the arrays)."""
    spma = mixed_spma()
    if request.param == "loaded":
        save_spma(spma, tmp_path / "m.spma")
        spma = load_spma(tmp_path / "m.spma")
    return spma


def test_masses_match_component_loop(mixed):
    assert np.array_equal(mixed.masses, [c.mass for c in mixed.components])
    assert total_mass(mixed) == math.fsum(c.mass for c in mixed.components)


def test_evaluate_matches_component_loop(mixed):
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.uniform(-1.2, 1.2, (4000, 3)), mixed.centers])
    assert np.array_equal(evaluate(mixed, pts), _loop_evaluate(mixed, pts))


@pytest.mark.parametrize("spacing, shape", [
    (0.05, (41, 41, 41)), ((0.07, 0.05, 0.09), (30, 37, 25))])
def test_evaluate_on_grid_matches_component_loop(mixed, spacing, shape):
    origin = (-1.0, -0.95, -1.05)
    assert np.array_equal(evaluate_on_grid(mixed, origin, spacing, shape),
                          _loop_evaluate_on_grid(mixed, origin, spacing, shape))


def test_save_matches_component_loop_and_round_trips(mixed, tmp_path):
    save_spma(mixed, tmp_path / "a.spma")
    _loop_save(mixed, tmp_path / "b.spma")
    text = (tmp_path / "a.spma").read_bytes()
    assert text == (tmp_path / "b.spma").read_bytes()
    save_spma(load_spma(tmp_path / "a.spma"), tmp_path / "c.spma")
    assert (tmp_path / "c.spma").read_bytes() == text


def test_table_values_are_np_interp():
    rng = np.random.default_rng(5)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 6))])
    values = rng.uniform(0.0, 2.0, 7)
    s = np.concatenate([rng.uniform(-0.1, 1.1 * knots[-1], 2000), knots])
    inside = (s >= 0) & (s <= knots[-1])
    expect = np.where(inside, np.interp(np.clip(s, 0, knots[-1]), knots, values), 0)
    p = table_profile(knots, values, check_boundary=False)
    assert np.array_equal(p(s), expect)
