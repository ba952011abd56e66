"""Radial profiles, mass models, grids, metrics, and file round trips."""

import concurrent.futures
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gravharm import (GridDensity, PointMass, PointMasses, SPMA,
                      SmoothedPointMass, constant_taper, cosine_bump,
                      evaluate, evaluate_on_grid, load_spma, lp_metric,
                      quadratic_bump, save_spma, table_profile, total_mass)
from gravharm import density as density_module
from gravharm.density import (QUADRATIC, _BLOCK, _blocks, _distance_blocks,
                              _grid_slab, _parallel, _row_blocks)
from gravharm.potential import _point_mass_sums

from conftest import across_workers, mixed_spma


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
    pm = SPMA([spm]).as_point_masses()
    assert len(pm) == 1
    assert pm.masses[0] == spm.mass == pytest.approx(8.0 * math.pi / 15.0)
    assert np.array_equal(pm.positions[0], spm.center)
    assert spm.radius == 1.0


def test_point_mass_must_be_positive():
    with pytest.raises(ValueError):
        PointMass((0, 0, 0), 0.0)


@pytest.mark.parametrize("positions, masses", [
    (np.empty((0, 3)), np.empty(0)),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0]),
    ([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]], [1.0, 1.0]),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 0.0]),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, -1.0]),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, np.inf]),
], ids=["empty", "mismatched-shapes", "nan-position", "zero-mass",
        "negative-mass", "infinite-mass"])
def test_point_masses_require_a_valid_mass(positions, masses):
    with pytest.raises(ValueError):
        PointMasses(positions, masses)


def test_point_masses_name_the_first_bad_mass():
    with pytest.raises(ValueError, match="component 1: point mass needs"
                       ) as info:
        PointMasses([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, np.inf]],
                    [1.0, -1.0, 1.0])
    assert info.value.index == 1


def test_point_masses_of_objects_and_arrays():
    objs = [PointMass((0.6, 0.0, 0.0), 1.0), PointMass((0.0, -0.8, 0.0), 2.0)]
    pms = PointMasses.of(objs)
    assert len(pms) == 2
    assert np.array_equal(pms.positions, [o.position for o in objs])
    assert np.array_equal(pms.masses, [1.0, 2.0])
    assert PointMasses.of(pms) is pms


def test_spma_point_masses_share_its_arrays():
    spma = mixed_spma()
    pms = spma.as_point_masses()
    assert pms.positions is spma.centers and pms.masses is spma.masses
    assert len(pms) == len(spma)


def test_spma_superposition_pointwise():
    a = SmoothedPointMass((0, 0, 0), quadratic_bump(1.0, 1.0))
    b = SmoothedPointMass((0.5, 0, 0), cosine_bump(2.0, 1.0))
    arr = SPMA([a, b])
    x = np.array([0.3, 0.1, -0.2])
    assert evaluate(arr, x) == pytest.approx(
        evaluate(SPMA([a]), x) + evaluate(SPMA([b]), x))
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


def _bump(amp, a):
    return SPMA([SmoothedPointMass((0, 0, 0), quadratic_bump(amp, a))])


def test_lp_metric_against_total_mass():
    # |2f - f| = f, so mu_1(f, 2f) is the integral of f, the total mass
    f = _bump(1.0, 1.0)
    assert lp_metric(f, _bump(2.0, 1.0), resolution=96) == pytest.approx(
        total_mass(f), rel=2e-3)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.2, 3.0), st.floats(0.3, 1.5))
def test_lp_metric_amplitude_linearity(amp, a):
    assert lp_metric(_bump(amp, a), _bump(2 * amp, a),
                     resolution=24) == pytest.approx(
        amp * lp_metric(_bump(1.0, a), _bump(2.0, a), resolution=24),
        rel=1e-10)


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
# the distance kernel behind every points-against-centers sum: bit for bit
# np.linalg.norm of the difference array

def _norm(x, positions, p):
    return np.linalg.norm(x[p, None] - positions, axis=2)


@pytest.mark.parametrize("n_centers, n_points, rows", [
    (7, 3 * (_BLOCK // 7) + 100, [_BLOCK // 7] * 3 + [100]),  # last partial
    (_BLOCK + 5, 3, [1, 1, 1]),              # one point per block
])
def test_distance_blocks_are_linalg_norm(n_centers, n_points, rows):
    rng = np.random.default_rng(n_centers)
    positions = rng.uniform(-1, 1, (n_centers, 3))
    x = rng.uniform(-2, 2, (n_points, 3))
    seen = []
    for p, d in _distance_blocks(x, positions):
        assert np.array_equal(d, _norm(x, positions, p))
        seen.append(len(p))
    assert seen == rows


def test_distance_blocks_copied_before_the_next_block():
    # every block is yielded in one buffer, so a caller keeping a block
    # copies it first
    rng = np.random.default_rng(8)
    positions = rng.uniform(-1, 1, (1000, 3))
    x = rng.uniform(-2, 2, (70, 3))             # 32-point blocks, then 6
    kept = [(p, d.copy()) for p, d in _distance_blocks(x, positions)]
    assert len(kept) == 3
    for p, d in kept:
        assert np.array_equal(d, _norm(x, positions, p))
    assert np.array_equal(np.vstack([d for _, d in kept]),
                          _norm(x, positions, np.arange(70)))


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


def test_evaluate_keeps_its_bits_on_every_core(monkeypatch):
    # 10 components: 3276-point blocks, so 5 blocks, the centers in the last
    spma = mixed_spma()
    rng = np.random.default_rng(12)
    pts = np.vstack([rng.uniform(-1.2, 1.2, (13200, 3)), spma.centers])
    runs = across_workers(monkeypatch, lambda: evaluate(spma, pts))
    assert all(np.array_equal(v, runs[1]) for v in runs)
    assert np.array_equal(runs[0], _loop_evaluate(spma, pts))


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


def padded_grid_slab(spma, origin, spacing, shape, start, stop):
    """_grid_slab's SPMA scatter as it ran before its blocks were padded
    one by one: every row padded to the longest row of any component;
    kept as the reference for the per-block padding."""
    origin = np.asarray(origin, dtype=float)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (3,))
    nx, ny, nz = shape
    out = np.zeros((stop - start) * ny * nz)
    centers, radii = spma.centers, spma.radii
    lo = np.maximum(np.ceil((centers - radii[:, None] - origin) / spacing)
                    .astype(int), (start, 0, 0))
    hi = np.minimum(np.floor((centers + radii[:, None] - origin) / spacing)
                    .astype(int), (stop - 1, ny - 1, nz - 1))
    ext = np.maximum(hi - lo + 1, 0)
    rows = ext[:, 0] * ext[:, 1] * (ext[:, 2] > 0)
    end = np.cumsum(rows)
    k = np.arange(ext[:, 2].max())
    for row in _blocks(int(end[-1]), len(k)):
        c = np.searchsorted(end, row, side="right")
        q = row - end[c] + rows[c]
        i, j = lo[c, 0] + q // ext[c, 1], lo[c, 1] + q % ext[c, 1]
        dx = origin[0] + spacing[0] * i - centers[c, 0]
        dy = origin[1] + spacing[1] * j - centers[c, 1]
        kz = lo[c, 2][:, None] + k
        dz = origin[2] + spacing[2] * kz - centers[c, 2][:, None]
        dist = np.sqrt((dx * dx + dy * dy)[:, None] + dz * dz)
        inside = (dist <= radii[c][:, None]) & (k < ext[c, 2][:, None])
        flat = (((i - start) * ny + j) * nz)[:, None] + kz
        np.add.at(out, flat[inside], spma.profile(
            np.repeat(c, inside.sum(axis=1)), dist[inside]))
    return out.reshape(stop - start, ny, nz)


def big_and_small(big_first):
    """One ball of radius 0.8 and 60 of radius 0.03-0.2, mixed kinds."""
    rng = np.random.default_rng(12)
    centers = np.vstack([[[0.05, -0.1, 0.0]], rng.uniform(-1, 1, (60, 3))])
    radii = np.concatenate([[0.8], rng.uniform(0.03, 0.2, 60)])
    kinds = np.arange(61) % 2
    if not big_first:
        centers, radii, kinds = centers[::-1], radii[::-1], kinds[::-1]
    return SPMA.from_arrays(centers, radii, kinds, rng.uniform(0.5, 2, 61))


def record_blocks(monkeypatch):
    """The blocks _grid_slab takes, as (rows, their components, their
    widths, the longest row) each."""
    blocks = []

    def spy(end, width):
        for row, c, longest in _row_blocks(end, width):
            blocks.append((row, c, width[c], longest))
            yield row, c, longest
    monkeypatch.setattr(density_module, "_row_blocks", spy)
    return blocks


@pytest.mark.parametrize("spma, spacing, shape, start, stop", [
    (big_and_small(True), 0.05, (41, 41, 41), 0, 41),
    (big_and_small(False), 0.05, (41, 41, 41), 0, 41),
    (mixed_spma(), 0.05, (41, 41, 41), 0, 41),     # over- and off-grid parts
    (mixed_spma(), (0.07, 0.05, 0.09), (30, 37, 25), 0, 30),
    (big_and_small(False), (0.07, 0.05, 0.09), (30, 37, 25), 9, 23),
], ids=["big-first", "big-last", "mixed", "per-axis-spacing", "start"])
def test_grid_slab_matches_globally_padded_scatter(monkeypatch, spma, spacing,
                                                   shape, start, stop):
    # a small _BLOCK cuts blocks inside components
    monkeypatch.setattr(density_module, "_BLOCK", 200)
    blocks = record_blocks(monkeypatch)
    origin = (-1.0, -0.95, -1.05)
    got = _grid_slab(spma, origin, spacing, shape, start, stop)
    assert np.array_equal(got, padded_grid_slab(spma, origin, spacing, shape,
                                                start, stop))
    for row, _, widths, longest in blocks:
        assert longest == widths.max()
        assert len(row) * longest <= 200 or len(row) == 1
    assert any(a[1][-1] == b[1][0] for a, b in zip(blocks, blocks[1:]))
    assert len({longest for *_, longest in blocks}) > 1


def test_single_ball_rows_fall_into_equal_blocks(monkeypatch):
    # the oracle's fine slab of a ball filling its box: every row is 256
    # nodes, so every block holds _BLOCK // 256 = 128 of them
    blocks = record_blocks(monkeypatch)
    ball = SPMA.from_arrays([[0.0, 0.0, 0.0]], [1.0], [QUADRATIC], [1.0])
    w = 2.0 / 256
    _grid_slab(ball, (-1 + w / 2,) * 3, w, (256,) * 3, 0, 4)
    assert [(len(row), longest) for row, *_, longest in blocks] == \
        [(_BLOCK // 256, 256)] * 8


def test_table_values_are_np_interp():
    rng = np.random.default_rng(5)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 6))])
    values = rng.uniform(0.0, 2.0, 7)
    s = np.concatenate([rng.uniform(-0.1, 1.1 * knots[-1], 2000), knots])
    inside = (s >= 0) & (s <= knots[-1])
    expect = np.where(inside, np.interp(np.clip(s, 0, knots[-1]), knots, values), 0)
    p = table_profile(knots, values, check_boundary=False)
    assert np.array_equal(p(s), expect)


# ---------------------------------------------------------------------------
# _parallel: the per-call worker threads

def test_parallel_takes_every_item_once_and_leaves_no_thread(monkeypatch):
    # more workers than cores and a short switch interval: an item taken
    # twice or lost from the shared iterator shows in hits
    monkeypatch.setattr(density_module, "_WORKERS", 8)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for items in (range(3000), list(range(3000))):
            hits = np.zeros(3000, dtype=int)

            def take(i):
                hits[i] += 1
            _parallel(take, items)
            assert threading.active_count() == before
            assert np.all(hits == 1)
    finally:
        sys.setswitchinterval(interval)


def test_helpers_keep_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(density_module, "_WORKERS", 3)
    raising = np.zeros(30, dtype=bool)

    def item(i):
        raising[i] = np.geterr()["divide"] == "raise"
    with np.errstate(divide="raise"):
        _parallel(item, range(30))
    assert raising.all()


def test_one_block_starts_no_thread(monkeypatch):
    made = []
    pool = concurrent.futures.ThreadPoolExecutor

    def spy(*args):
        made.append(args)
        return pool(*args)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(density_module, "_WORKERS", 3)
    masses = PointMasses([[0, 0, 0.3], [0, 0, -0.2]], [1.0, 0.5])
    rng = np.random.default_rng(13)
    _point_mass_sums(masses, rng.uniform(1, 2, (4, 3)))    # a snowman ray
    assert made == []
    _point_mass_sums(masses, rng.uniform(1, 2, (_BLOCK // 2 + 1, 3)))
    assert made == [(1,)]                                  # two blocks


def test_an_error_comes_out_once_every_helper_stopped(monkeypatch):
    monkeypatch.setattr(density_module, "_WORKERS", 3)
    before = threading.active_count()
    running = []                 # items started and not finished

    def item(i):
        running.append(i)
        if i == 4:
            raise RuntimeError("item 4")
        time.sleep(0.01)
        running.remove(i)
    with pytest.raises(RuntimeError, match="item 4"):
        _parallel(item, range(40))
    assert running == [4]
    assert threading.active_count() == before
    hits = np.zeros(40, dtype=int)
    _parallel(lambda i: hits.__setitem__(i, i), range(40))
    assert np.array_equal(hits, np.arange(40))
