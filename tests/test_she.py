"""Harmonics, coefficient construction, and series evaluation."""

import concurrent.futures
import math
import sys
import tracemalloc
import warnings

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lpmv

from gravharm import density, she
from gravharm import (Direction, PointMass, PointMasses, SHECoefficients,
                      SnowmanParams, build_snowman, coeffs_from_point_masses, coeffs_from_sphere_quadrature,
                      evaluate_partial_sum, fibonacci_directions, legendre_p,
                      partial_sum_sequence, pointmass_brillouin_radius,
                      pointmass_direction_sums, potential_point_masses,
                      series_value, ynm_bar, ynm_table)
from gravharm.she import direction_coefficient_table, direction_term_sequence

from conftest import random_point_masses, unblocked_potential_point_masses


def ynm_oracle(n, m, theta, phi):
    """Independent 4-pi-normalized real harmonic via scipy's lpmv.

    lpmv carries the Condon-Shortley phase, removed here; normalization
    sqrt((2 - delta_m0)(2n+1) (n-|m|)!/(n+|m|)!).
    """
    am = abs(m)
    p = (-1.0) ** am * lpmv(am, n, math.cos(theta))
    norm = math.sqrt((2.0 if m else 1.0) * (2 * n + 1)
                     * math.factorial(n - am) / math.factorial(n + am))
    trig = math.cos(am * phi) if m >= 0 else math.sin(am * phi)
    return norm * p * trig


# ---------------------------------------------------------------------------
# harmonics

def test_legendre_p_matches_numpy():
    x = np.linspace(-1, 1, 21)
    for n in range(0, 12):
        c = np.zeros(n + 1)
        c[n] = 1.0
        oracle = np.polynomial.legendre.legval(x, c)
        assert np.allclose(legendre_p(n, x), oracle, atol=1e-13)


def test_legendre_p_scalar_endpoints():
    assert legendre_p(7, 1.0) == pytest.approx(1.0)
    assert legendre_p(7, -1.0) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        legendre_p(3, 1.5)


@pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (1, 1), (1, -1), (3, 2),
                                 (5, -4), (8, 8), (12, 0), (15, -7)])
def test_ynm_bar_matches_scipy_oracle(n, m):
    rng = np.random.default_rng(42)
    for _ in range(5):
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        phi = float(rng.uniform(0, 2 * math.pi))
        d = Direction(theta, phi)
        assert ynm_bar(n, m, d) == pytest.approx(
            ynm_oracle(n, m, theta, phi), rel=1e-11, abs=1e-11)


def test_ynm_bar_zonal_at_pole():
    # [DERIVED] Ybar_{n,0}(pole) = sqrt(2n+1)
    for n in (0, 1, 5, 40):
        assert ynm_bar(n, 0, Direction(0.0, 0.0)) == pytest.approx(
            math.sqrt(2 * n + 1), rel=1e-13)


def test_ynm_bar_rejects_bad_order():
    with pytest.raises(ValueError):
        ynm_bar(2, 3, Direction(1.0, 1.0))


def test_ynm_table_consistent_with_ynm_bar():
    theta, phi = 1.1, 2.3
    n_max = 10
    Y = ynm_table(n_max, theta, phi)
    d = Direction(theta, phi)
    for n in range(n_max + 1):
        for m in range(-n, n + 1):
            assert Y[n, n_max + m] == pytest.approx(
                ynm_bar(n, m, d), rel=1e-12, abs=1e-12)


def test_addition_theorem_diagonal_small():
    # sum_m Ybar_{n,m}^2 = 2n + 1 at any direction
    d = Direction(0.73, 4.1)
    n_max = 30
    Y = ynm_table(n_max, d.theta, d.phi)
    for n in range(n_max + 1):
        total = float(np.sum(Y[n] ** 2))
        assert total == pytest.approx(2 * n + 1, rel=1e-12)


def _loop_pbar_column(m, n_max, u, s, ratio=1.0):
    """ratio^n Pbar_{n,m}(u) for n = m..n_max, one order at a time: the
    loop the degree-stepping kernel replaced, kept as its reference."""
    pmm = np.ones_like(u)
    for k in range(1, m + 1):
        f = math.sqrt(3.0) if k == 1 else math.sqrt((2 * k + 1) / (2 * k))
        pmm = pmm * (ratio * s) * f
    out = [pmm]
    p_prev, p_prev2 = pmm, np.zeros_like(u)
    for n in range(m + 1, n_max + 1):
        a = math.sqrt((2 * n - 1) * (2 * n + 1) / ((n - m) * (n + m)))
        b = -math.sqrt((2 * n + 1) * (n + m - 1) * (n - m - 1)
                       / ((n - m) * (n + m) * (2 * n - 3)))
        p = a * (ratio * u) * p_prev + b * (ratio * ratio) * p_prev2
        out.append(p)
        p_prev2, p_prev = p_prev, p
    return np.array(out)


def _kernel_table(u, s, n_max, ratio=1.0):
    P = np.zeros((n_max + 1, n_max + 1, len(u)))
    for cols, degrees in she._legendre_blocks(u, s, n_max, ratio):
        for n, p in degrees:
            P[n, :n + 1, cols] = p
    return P


@pytest.mark.parametrize("with_ratio", [False, True])
def test_legendre_kernel_reproduces_loop_bit_for_bit(with_ratio):
    theta = np.array([0.0, 0.01, 0.4, 1.3, math.pi / 2, 2.9, math.pi])
    u, s = np.cos(theta), np.sin(theta)
    ratio = np.linspace(0.1, 1.0, len(u)) if with_ratio else 1.0
    n_max = 60
    P = _kernel_table(u, s, n_max, ratio)
    for m in range(n_max + 1):
        assert np.array_equal(P[m:, m], _loop_pbar_column(m, n_max, u, s,
                                                          ratio))


def test_legendre_kernel_column_blocks_are_independent(monkeypatch):
    theta = np.linspace(0.05, 3.0, 11)
    u, s = np.cos(theta), np.sin(theta)
    whole = _kernel_table(u, s, 20)
    # blocks of 3, 3, 3 and 2 points
    monkeypatch.setattr(she, "_BLOCK_ELEMENTS", 3 * 21)
    assert np.array_equal(_kernel_table(u, s, 20), whole)


def _zonal_rows(u, n_max, ratio=1.0):
    Q = np.zeros((n_max + 1, len(u)))
    for cols, degrees in she._legendre_blocks(u, None, n_max, ratio,
                                              m_max=0):
        for n, q in degrees:
            assert q.shape[0] == 1
            Q[n, cols] = q[0]
    return Q


@pytest.mark.parametrize("n_max", [0, 1, 2, 60])
@pytest.mark.parametrize("with_ratio", [False, True])
def test_zonal_slice_is_row_zero_of_the_full_kernel(monkeypatch, n_max,
                                                    with_ratio):
    theta = np.concatenate([[0.0, math.pi / 2, math.pi],
                            np.linspace(0.01, 3.1, 20)])
    u, s = np.cos(theta), np.sin(theta)
    ratio = np.linspace(0.05, 1.0, len(u)) if with_ratio else 1.0
    full = _kernel_table(u, s, n_max, ratio)[:, 0]
    assert np.array_equal(_zonal_rows(u, n_max, ratio), full)
    # several column blocks: 5 points per block for the zonal slice
    monkeypatch.setattr(she, "_BLOCK_ELEMENTS", 5)
    assert np.array_equal(_zonal_rows(u, n_max, ratio), full)


def test_bounded_orders_keep_their_rows_of_the_full_kernel():
    theta = np.linspace(0.02, 3.1, 9)
    u, s = np.cos(theta), np.sin(theta)
    ratio = np.linspace(0.3, 1.0, len(u))
    full = _kernel_table(u, s, 30, ratio)
    for m_max in (1, 7, 29):
        for cols, degrees in she._legendre_blocks(u, s, 30, ratio, m_max):
            for n, p in degrees:
                assert np.array_equal(p, full[n, :min(n, m_max) + 1, cols])


@pytest.mark.parametrize("m_min", [0, 1, 7, 30])
@pytest.mark.parametrize("with_ratio", [False, True])
def test_order_ranges_keep_their_rows_of_the_full_kernel(m_min, with_ratio):
    theta = np.concatenate([[0.0, math.pi / 2, math.pi],
                            np.linspace(0.02, 3.1, 9)])
    u, s = np.cos(theta), np.sin(theta)
    ratio = np.linspace(0.3, 1.0, len(u)) if with_ratio else 1.0
    full = _kernel_table(u, s, 30, ratio)
    ratio = np.broadcast_to(ratio, u.shape)
    for m_max in sorted({m_min, min(m_min + 5, 30), 30}):
        degrees_seen = []
        for cols, degrees in she._legendre_blocks(u, s, 30, ratio, m_max,
                                                  m_min):
            for n, p in degrees:
                degrees_seen.append(n)
                assert np.array_equal(p, full[n, m_min:min(n, m_max) + 1,
                                              cols])
        assert degrees_seen == list(range(m_min, 31))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 57, 200])
def test_legendre_p_is_the_full_kernels_zonal_row(n):
    x = np.linspace(-1.0, 1.0, 101)
    s = np.sqrt(1.0 - x * x)
    full = _kernel_table(x, s, n)[n, 0] / math.sqrt(2 * n + 1)
    assert np.array_equal(legendre_p(n, x), full)


def test_legendre_kernel_addition_theorem_through_degree_1800():
    # the validated range stated in the module docstring
    theta = np.radians([0.5, 1, 2, 5, 10, 20, 30, 45, 60, 75, 89.9])
    n_top = 1800
    for _, degrees in she._legendre_blocks(np.cos(theta), np.sin(theta),
                                           n_top):
        for n, p in degrees:
            if n % 300 == 0:
                sums = np.sum(p * p, axis=0)
                assert np.max(np.abs(sums / (2 * n + 1) - 1)) <= 1e-11
    assert n == n_top


def test_orthonormality_by_quadrature_small():
    # mean over the sphere of Ybar_a * Ybar_b = delta_ab
    n_band = 12
    x, w = np.polynomial.legendre.leggauss(n_band + 1)
    phis = 2 * np.pi * np.arange(2 * n_band + 2) / (2 * n_band + 2)
    pairs = [(2, 1), (2, -1), (3, 0), (5, 4), (6, -6)]
    tables = {}
    for theta in np.arccos(x):
        for phi in phis:
            key = (theta, phi)
            tables[key] = {p: ynm_bar(p[0], p[1], Direction(theta, phi))
                           for p in pairs}
    for i, pa in enumerate(pairs):
        for pb in pairs[i:]:
            acc = 0.0
            for j, theta in enumerate(np.arccos(x)):
                row = sum(tables[(theta, phi)][pa] * tables[(theta, phi)][pb]
                          for phi in phis) / len(phis)
                acc += 0.5 * w[j] * row
            assert acc == pytest.approx(1.0 if pa == pb else 0.0, abs=1e-12)


def test_fibonacci_directions_count_and_range():
    dirs = fibonacci_directions(33)
    assert len(dirs) == 33
    for d in dirs:
        assert 0.0 <= d.theta <= math.pi
        assert 0.0 <= d.phi < 2 * math.pi


# ---------------------------------------------------------------------------
# coefficients from point masses

def test_coeffs_single_origin_mass():
    c = coeffs_from_point_masses([PointMass((0, 0, 0), 3.0)], 1.0, 8, G=2.0)
    assert c.GM == pytest.approx(6.0)
    assert c.get(0, 0) == 1.0
    off = c.coeffs.copy()
    off[0, c.n_max] = 0.0
    assert np.max(np.abs(off)) == 0.0


def test_coeffs_axis_mass_zonal_closed_form():
    # [DERIVED] mass on +z at distance d: C_{n,0} = (d/R)^n / sqrt(2n+1)
    d, R = 0.8, 1.0
    c = coeffs_from_point_masses([PointMass((0, 0, d), 1.0)], R, 20)
    for n in range(21):
        assert c.get(n, 0) == pytest.approx(d**n / math.sqrt(2 * n + 1),
                                            rel=1e-12)
        for m in range(1, n + 1):
            assert abs(c.get(n, m)) < 1e-15
            assert abs(c.get(n, -m)) < 1e-15


def test_coeffs_match_direct_formula():
    # direct sum with the (scipy-validated) harmonics as oracle
    rng = np.random.default_rng(3)
    masses = [PointMass(p, m) for p, m in
              zip(rng.uniform(-0.4, 0.4, (4, 3)), rng.uniform(0.5, 2, 4))]
    R = 1.0
    c = coeffs_from_point_masses(masses, R, 6)
    M = sum(pm.mass for pm in masses)
    for n in range(7):
        for m in range(-n, n + 1):
            acc = 0.0
            for pm in masses:
                r = np.linalg.norm(pm.position)
                theta = math.acos(pm.position[2] / r)
                phi = math.atan2(pm.position[1], pm.position[0]) % (2 * math.pi)
                acc += pm.mass * (r / R) ** n * ynm_oracle(n, m, theta, phi)
            acc /= M * (2 * n + 1)
            assert c.get(n, m) == pytest.approx(acc, rel=1e-10, abs=1e-12)


def test_coeffs_from_objects_and_array_record_are_identical():
    masses = random_point_masses(7)
    c_list = coeffs_from_point_masses(masses, 1.0, 40)
    c_arr = coeffs_from_point_masses(PointMasses.of(masses), 1.0, 40)
    assert np.array_equal(c_list.coeffs, c_arr.coeffs)
    assert c_list.GM == c_arr.GM


def test_order_ranges_share_the_triangle_from_a_block_of_block_entries(
        monkeypatch):
    monkeypatch.setattr(density, "_WORKERS", 3)
    # cut at round(160 (1 - sqrt(1 - k / 3))) for k = 1, 2
    assert she._order_ranges(160, 1000) == [(0, 28), (29, 67), (68, 160)]
    # 204 * 161 entries reach density._BLOCK, 203 * 161 do not
    assert 203 * 161 < density._BLOCK <= 204 * 161
    assert she._order_ranges(160, 204) == [(0, 28), (29, 67), (68, 160)]
    assert she._order_ranges(160, 203) == [(0, 160)]
    assert she._order_ranges(200, 2) == [(0, 200)]
    # fewer orders than cores leave no empty range
    assert she._order_ranges(1, 40000) == [(0, 1)]
    assert she._order_ranges(0, 40000) == [(0, 0)]
    monkeypatch.setattr(density, "_WORKERS", 1)
    assert she._order_ranges(160, 1000) == [(0, 160)]


def _ball_masses(count, seed):
    """count masses in the 0.9-ball, one at the origin and two on the z
    axis."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(count, 3))
    pos *= (0.9 * rng.uniform(size=count) ** (1 / 3)
            / np.linalg.norm(pos, axis=1))[:, None]
    pos[:3] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.4], [0.0, 0.0, -0.7]]
    return PointMasses(pos, rng.uniform(0.1, 1.0, count))


def _ranges_across_workers(monkeypatch, pm, n_max, workers=(1, 2, 3)):
    """C at each worker count, and the number of items of each
    density._parallel call made along the way."""
    widths, runs = [], []
    parallel = density._parallel

    def counting(fn, items):
        widths.append(len(items))
        parallel(fn, items)
    monkeypatch.setattr(density, "_parallel", counting)
    # the ranges share C: switch threads often, so that a write outside a
    # range's own columns would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for w in workers:
            monkeypatch.setattr(density, "_WORKERS", w)
            runs.append(coeffs_from_point_masses(pm, 1.0, n_max).coeffs)
    finally:
        sys.setswitchinterval(interval)
    return runs, widths


@pytest.mark.parametrize("count, n_max", [(1000, 60), (1000, 160),
                                          (17000, 30)])
def test_coefficients_split_orders_bit_for_bit(monkeypatch, count, n_max):
    # 17000 masses at n_max = 30: a block of 16912 points and an 88-point
    # tail, which every order range streams in turn
    pm = _ball_masses(count, count + n_max)
    runs, widths = _ranges_across_workers(monkeypatch, pm, n_max,
                                          (density._WORKERS, 1, 3))
    assert all(np.array_equal(c, runs[1]) for c in runs)
    # one pool per call; at 3 workers it runs three order ranges
    assert len(widths) == 3 and widths[1:] == [1, 3]


@pytest.mark.parametrize("count, n_max, block", [(1000, 40, 300),
                                                 (7000, 4, 2000)])
def test_order_ranges_stream_several_column_blocks(monkeypatch, count, n_max,
                                                   block):
    # 4 blocks, the last one ragged; at n_max = 4 the first of 3 ranges
    # carries order 0 alone, and must still see the full kernel's blocks
    monkeypatch.setattr(she, "_BLOCK_ELEMENTS", block * (n_max + 1))
    pm = _ball_masses(count, count)
    runs, widths = _ranges_across_workers(monkeypatch, pm, n_max)
    assert all(np.array_equal(c, runs[0]) for c in runs)
    assert widths == [1, 2, 3]
    # the runs leave density._WORKERS at 3
    assert n_max != 4 or she._order_ranges(n_max, count)[0] == (0, 0)


def test_order_ranges_keep_the_full_kernels_blocks_and_rows(monkeypatch):
    theta = np.linspace(0.02, 3.1, 23)
    u, s = np.cos(theta), np.sin(theta)
    ratio = np.linspace(0.3, 1.0, len(u))
    full = _kernel_table(u, s, 12, ratio)
    # 5-point blocks for the full kernel and every order range, the last
    # one 3 points; 65-point blocks for the zonal slice without s
    monkeypatch.setattr(she, "_BLOCK_ELEMENTS", 5 * 13)
    monkeypatch.setattr(density, "_WORKERS", 3)
    ranges = she._order_ranges(12, 40000)
    assert ranges == [(0, 1), (2, 4), (5, 12)]
    for m_min, m_max in ranges + [(0, 0), (3, 3)]:
        blocks = []
        for cols, degrees in she._legendre_blocks(u, s, 12, ratio, m_max,
                                                  m_min):
            blocks.append(cols)
            for n, p in degrees:
                assert np.array_equal(p, full[n, m_min:min(n, m_max) + 1,
                                              cols])
        assert [(c.start, len(u[c])) for c in blocks] == [
            (0, 5), (5, 5), (10, 5), (15, 5), (20, 3)]
    zonal = [cols for cols, _ in she._legendre_blocks(u, None, 12, ratio,
                                                      m_max=0)]
    assert [(c.start, len(u[c])) for c in zonal] == [(0, 23)]


def _loop_peak(monkeypatch, call):
    """call()'s result, and the most memory (tracemalloc) it held beyond
    what it held as its _legendre_blocks loop began."""
    blocks, start = she._legendre_blocks, []

    def spy(*args, **kwargs):
        start.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return blocks(*args, **kwargs)
    monkeypatch.setattr(she, "_legendre_blocks", spy)
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(she, "_legendre_blocks", blocks)
    return out, peak - start[0]


def _direction_table(k):
    rng = np.random.default_rng(8)
    c = coeffs_from_point_masses(_ball_masses(50, 8), 1.0, 40)
    return lambda: direction_coefficient_table(c, rng.uniform(0, np.pi, k),
                                               rng.uniform(0, 2 * np.pi, k))


def _direction_sums(k):
    pm = _ball_masses(k, 9)
    return lambda: pointmass_direction_sums(pm, 1.0, 40, [0.6, 0.0, 0.8])


def _sphere_quadrature(k):
    pm = _ball_masses(20, 10)
    return lambda: coeffs_from_sphere_quadrature(
        lambda x: potential_point_masses(pm, x), 1.0, 1.0, 40,
        oversample=k - 41).coeffs


@pytest.mark.parametrize("make, one, many", [
    (_direction_table, 41, 130),            # directions
    (_direction_sums, 41 * 41, 5500),       # masses; the zonal slice's blocks
    (_sphere_quadrature, 41, 141),          # Gauss-Legendre latitudes
], ids=["direction-table", "direction-sums", "sphere-quadrature"])
def test_column_blocks_free_their_buffers_before_the_next(monkeypatch, make,
                                                          one, many):
    # blocks of 41 columns at n_max = 40: `many` columns take 4 blocks,
    # the last ragged, and hold no more at once than one block does
    whole = make(many)()
    monkeypatch.setattr(she, "_BLOCK_ELEMENTS", 41 * 41)
    _, one_block = _loop_peak(monkeypatch, make(one))
    got, four_blocks = _loop_peak(monkeypatch, make(many))
    assert four_blocks < 1.1 * one_block
    # smaller blocks change only how the sums are grouped
    assert np.allclose(got, whole, rtol=0, atol=1e-14)


def test_small_coefficient_sets_start_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a helper thread was asked for")
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_thread)
    monkeypatch.setattr(density, "_WORKERS", 3)
    snowman = build_snowman(SnowmanParams(0.5)).as_point_masses()
    assert len(snowman.masses) == 2
    coeffs_from_point_masses(snowman, pointmass_brillouin_radius(snowman),
                             200)
    coeffs_from_point_masses([PointMass((0.1, 0.2, 0.3), 1.0)], 1.0, 200)
    coeffs_from_point_masses(_ball_masses(64, 5), 1.0, 160)
    # the stub is live: 1000 masses at n_max = 60 split their orders
    with pytest.raises(AssertionError, match="helper thread"):
        coeffs_from_point_masses(_ball_masses(1000, 5), 1.0, 60)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_reference_radius_and_GM_must_be_positive_and_finite(bad):
    pm = PointMasses(np.array([[0.0, 0.0, 0.5]]), [1.0])
    with pytest.raises(ValueError, match="reference radius must be "
                                         "positive and finite"):
        coeffs_from_point_masses(pm, bad, 5)
    with pytest.raises(ValueError, match="reference radius must be "
                                         "positive and finite"):
        pointmass_direction_sums(pm, bad, 5, np.array([0.0, 0.0, 1.0]))
    for R, GM in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="reference radius and GM must "
                                             "be positive and finite"):
            SHECoefficients(R, GM, 0, [[1.0]])
    if bad > 0:                       # G = inf makes GM = inf
        with pytest.raises(ValueError, match="GM=inf"):
            coeffs_from_point_masses(pm, 1.0, 5, G=bad)


def test_coeffs_warns_outside_reference_sphere():
    with pytest.warns(UserWarning):
        coeffs_from_point_masses([PointMass((0, 0, 2.0), 1.0)], 1.0, 4)


def test_coeffs_superposition_linearity():
    # mass-weighted linearity of the coefficient sequences, same R
    a = [PointMass((0.3, 0.1, -0.2), 1.5)]
    b = [PointMass((-0.1, 0.4, 0.2), 0.7), PointMass((0, 0, 0.5), 1.0)]
    R, n_max = 1.0, 10
    ca = coeffs_from_point_masses(a, R, n_max)
    cb = coeffs_from_point_masses(b, R, n_max)
    cab = coeffs_from_point_masses(a + b, R, n_max)
    lhs = cab.GM * cab.coeffs
    rhs = ca.GM * ca.coeffs + cb.GM * cb.coeffs
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-14 * cab.GM)


# ---------------------------------------------------------------------------
# sphere-quadrature recovery

def test_sphere_quadrature_recovers_analytic_coeffs():
    masses = [PointMass((0.3, 0.2, -0.1), 1.0), PointMass((-0.2, 0.4, 0.3), 2.0)]
    R = 0.6
    ca = coeffs_from_point_masses(masses, R, 16)
    cq = coeffs_from_sphere_quadrature(
        lambda pts: potential_point_masses(masses, pts), 1.2 * R, R, 16,
        brillouin_radius=R, oversample=60)
    assert np.max(np.abs(ca.coeffs - cq.coeffs)) < 1e-11
    assert cq.GM == pytest.approx(ca.GM, rel=1e-12)


def _per_latitude_samples(potential_fn, R_quad, n_band):
    """The sampling loop the quadrature ran before it sampled in one call:
    one potential_fn call per Gauss-Legendre latitude."""
    n_theta, n_phi = n_band + 1, 2 * n_band + 2
    x_gl, _ = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - x_gl * x_gl))
    pts, V = [], np.empty((n_theta, n_phi))
    for j in range(n_theta):
        p = R_quad * np.column_stack([
            sin_t[j] * np.cos(phis), sin_t[j] * np.sin(phis),
            np.full(n_phi, x_gl[j])])
        pts.append(p)
        V[j] = potential_fn(p)
    return np.vstack(pts), V


@pytest.mark.parametrize("seed", [1000, 1007, 1019])
def test_sphere_quadrature_samples_match_per_latitude_loop(seed):
    # criterion 5's setup: n_max 32, oversample 80, R_quad = 1.2 R
    masses = random_point_masses(seed)
    R = pointmass_brillouin_radius(masses)
    calls = []

    def potential(pts):
        calls.append((pts, potential_point_masses(masses, pts)))
        return calls[-1][1]

    coeffs_from_sphere_quadrature(potential, 1.2 * R, R, 32,
                                  brillouin_radius=R, oversample=80)
    pts, V = _per_latitude_samples(
        lambda p: unblocked_potential_point_masses(masses, p), 1.2 * R,
        32 + 80)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], pts)
    assert np.array_equal(calls[0][1], V.ravel())


@pytest.mark.parametrize("kwargs, name", [
    ({"n_max": -1}, "n_max"), ({"n_max": 8, "oversample": -20}, "oversample"),
])
def test_negative_degree_arguments_are_named(kwargs, name):
    masses = [PointMass((0.3, 0.2, -0.1), 1.0)]
    if "oversample" not in kwargs:
        with pytest.raises(ValueError, match=name):
            coeffs_from_point_masses(masses, 1.0, **kwargs)
    with pytest.raises(ValueError, match=name):
        coeffs_from_sphere_quadrature(
            lambda pts: potential_point_masses(masses, pts), 1.0, 0.5,
            **kwargs)


@pytest.mark.parametrize("R_quad", [0.0, -1.2, math.nan, math.inf])
def test_bad_quadrature_radius_is_named(R_quad):
    masses = [PointMass((0.3, 0.2, -0.1), 1.0)]
    with pytest.raises(ValueError, match="R_quad"):
        coeffs_from_sphere_quadrature(
            lambda pts: potential_point_masses(masses, pts), R_quad, 0.5, 8,
            brillouin_radius=0.4)


def test_sphere_quadrature_warns_inside_brillouin():
    masses = [PointMass((0, 0, 0.5), 1.0)]
    with pytest.warns(UserWarning):
        coeffs_from_sphere_quadrature(
            lambda pts: potential_point_masses(masses, pts), 0.4, 0.5, 4,
            brillouin_radius=0.5)


# ---------------------------------------------------------------------------
# series evaluation

def test_partial_sum_origin_mass_is_gm_over_r():
    c = coeffs_from_point_masses([PointMass((0, 0, 0), 2.0)], 1.0, 30)
    d = Direction(1.0, 1.0)
    for r in (0.5, 1.0, 3.0):
        assert evaluate_partial_sum(c, 30, r, d) == pytest.approx(2.0 / r,
                                                                  rel=1e-15)


def test_partial_sum_sequence_cumulative():
    c = coeffs_from_point_masses([PointMass((0, 0, 0.4), 1.0)], 1.0, 20)
    d = Direction(0.3, 0.0)
    S, t = partial_sum_sequence(c, d, 1.5)
    assert np.allclose(S, np.cumsum(t))
    assert evaluate_partial_sum(c, 10, 1.5, d) == pytest.approx(S[10])


def test_direction_term_sequence_geometric_in_radius():
    c = coeffs_from_point_masses([PointMass((0, 0, 0.4), 1.0)], 1.0, 12)
    d = Direction(0.2, 1.0)
    t1 = direction_term_sequence(c, d, 1.0)
    t2 = direction_term_sequence(c, d, 2.0)
    n = np.arange(13)
    assert np.allclose(t2, t1 * 0.5 ** (n + 1), rtol=1e-13)


def test_partial_sums_over_an_array_of_radii():
    c = coeffs_from_point_masses([PointMass((0.2, 0, 0.3), 1.0),
                                  PointMass((-0.1, 0.2, 0), 0.5)], 1.0, 20)
    d = Direction(0.7, 2.0)
    radii = np.array([1.1, 1.5, 3.0])
    t = direction_term_sequence(c, d, radii)
    v = evaluate_partial_sum(c, 15, radii, d)
    assert t.shape == (3, 21) and v.shape == (3,)
    for i, r in enumerate(radii):
        assert np.allclose(t[i], direction_term_sequence(c, d, r),
                           rtol=1e-14, atol=0)
        assert v[i] == pytest.approx(evaluate_partial_sum(c, 15, r, d),
                                     rel=1e-14)
    with pytest.raises(ValueError):
        evaluate_partial_sum(c, 15, np.array([1.0, 0.0]), d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_degree_power_is_rotation_invariant(seed):
    # sum_m C_{n,m}^2 depends only on the masses' radii and mutual angles
    # (addition theorem), so a rotation leaves it unchanged whatever
    # directions the harmonics are evaluated at
    masses = random_point_masses(seed, max_count=6, radius=0.9)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    rotated = [PointMass(q @ pm.position, pm.mass) for pm in masses]
    n_max = 24
    power = np.sum(coeffs_from_point_masses(masses, 1.0, n_max).coeffs ** 2,
                   axis=1)
    power_rot = np.sum(
        coeffs_from_point_masses(rotated, 1.0, n_max).coeffs ** 2, axis=1)
    # relative to the largest power the degree can carry,
    # (sum_i w_i rho_i^n)^2 / (2n + 1), which is reached by a single mass
    w = np.array([pm.mass for pm in masses])
    w /= w.sum()
    rho = np.array([np.linalg.norm(pm.position) for pm in masses])
    n = np.arange(n_max + 1)
    bound = (w @ rho[:, None] ** n) ** 2 / (2 * n + 1)
    assert np.all(np.abs(power_rot - power) <= 1e-12 * bound)


def test_direction_coefficient_table_matches_ynm():
    c = coeffs_from_point_masses([PointMass((0.2, 0.3, 0.1), 1.0)], 1.0, 8)
    d = Direction(0.9, 5.0)
    b = direction_coefficient_table(c, [d.theta], [d.phi])[0]
    for n in range(9):
        acc = sum(c.get(n, m) * ynm_bar(n, m, d) for m in range(-n, n + 1))
        assert b[n] == pytest.approx(acc, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# direction sums straight from the masses

def _agree_with_coefficient_path(masses, R, n_max, d):
    """pointmass_direction_sums against the direction table of the full
    coefficient set, relative to the degree's scale sum_i w_i rho_i^n
    (|P_n| <= 1 bounds |b_n| by it).  Where the masses' terms cancel,
    both paths carry roundoff of that scale, not of b_n itself."""
    fast = pointmass_direction_sums(masses, R, n_max, d)
    c = coeffs_from_point_masses(masses, R, n_max)
    dirn = Direction.from_vector(d)
    slow = direction_coefficient_table(c, [dirn.theta], [dirn.phi])[0]
    assert fast.shape == (n_max + 1,)
    pms = PointMasses.of(masses)
    w = pms.masses / pms.masses.sum()
    rho = np.linalg.norm(pms.positions, axis=1) / R
    scale = w @ rho[:, None] ** np.arange(n_max + 1)
    assert np.all(np.abs(fast - slow) <= 1e-12 * scale)
    return fast, slow


def test_direction_sums_of_the_snowman():
    from gravharm import SnowmanParams, build_snowman
    pm = build_snowman(SnowmanParams(0.5)).as_point_masses()
    R = pointmass_brillouin_radius(pm)
    for d in ([0, 1, 1], [1, 0, 0], [0.3, -0.2, 0.9]):
        d = np.array(d, dtype=float) / np.linalg.norm(d)
        fast, slow = _agree_with_coefficient_path(pm, R, 200, d)
        # two equal masses: no cancellation outside the vanishing odd
        # degrees, so the paths agree relative to b_n itself
        big = np.abs(slow) > 1e-12 * np.abs(slow).max()
        assert np.all(np.abs(fast - slow)[big] <= 1e-12 * np.abs(slow[big]))


def test_direction_sums_of_a_thousand_masses():
    rng = np.random.default_rng(7)
    pos = rng.normal(size=(1000, 3))
    pos *= rng.uniform(0.0, 0.9, size=(1000, 1)) / np.linalg.norm(
        pos, axis=1)[:, None]
    pos[0] = 0.0                                  # one mass at the origin
    pm = PointMasses(pos, rng.uniform(0.1, 2.0, 1000))
    d = rng.normal(size=3)
    _agree_with_coefficient_path(pm, 1.0, 120, d / np.linalg.norm(d))


def test_direction_sums_with_masses_on_the_direction_and_at_the_origin():
    d = np.array([1.0, 2.0, -2.0]) / 3.0
    pm = PointMasses(np.array([0.5 * d, -0.7 * d, 0.9 * d, [0, 0, 0]]),
                     [1.0, 2.0, 0.5, 3.0])
    b = _agree_with_coefficient_path(pm, 1.0, 80, d)[0]
    # on the axis P_n(+-1) = (+-1)^n, so b_n is a sum of powers
    n = np.arange(81)
    w = np.array([1.0, 2.0, 0.5]) / 6.5
    expect = w @ (np.array([[0.5], [-0.7], [0.9]]) ** n)
    expect[0] += 3.0 / 6.5
    assert np.allclose(b, expect, rtol=1e-12, atol=0)
    for n_max in (0, 1):
        assert np.array_equal(
            _agree_with_coefficient_path(pm, 1.0, n_max, d)[0], b[:n_max + 1])


def test_direction_sums_of_origin_masses_are_one_then_zero():
    pm = PointMasses(np.zeros((2, 3)), [1.0, 1.0])
    b = pointmass_direction_sums(pm, 1.0, 30, np.array([0.0, 0.6, 0.8]))
    assert b[0] == 1.0 and np.all(b[1:] == 0.0)


def test_direction_sums_validate_like_the_coefficients():
    pm = PointMasses(np.array([[0.0, 0.0, 0.5]]), [1.0])
    with pytest.raises(ValueError, match="n_max"):
        pointmass_direction_sums(pm, 1.0, -1, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="reference radius"):
        pointmass_direction_sums(pm, 0.0, 5, np.array([0.0, 0.0, 1.0]))
    with pytest.warns(UserWarning, match="outside the reference sphere"):
        pointmass_direction_sums(pm, 0.4, 5, np.array([0.0, 0.0, 1.0]))


def test_series_value_is_the_partial_sum_of_the_same_direction_sums():
    pm = PointMasses(np.array([[0.2, 0.0, 0.3], [-0.1, 0.2, 0.0]]),
                     [1.0, 0.5])
    c = coeffs_from_point_masses(pm, 1.0, 20)
    d = Direction(0.7, 2.0)
    b = direction_coefficient_table(c, [d.theta], [d.phi])[0]
    radii = np.array([1.1, 1.5, 3.0])
    assert np.array_equal(series_value(c.GM, 1.0, b[:16], radii),
                          evaluate_partial_sum(c, 15, radii, d))
    assert series_value(c.GM, 1.0, b, 1.5) == evaluate_partial_sum(
        c, 20, 1.5, d)


# ---------------------------------------------------------------------------
# file format

def test_coefficients_save_load_round_trip(tmp_path):
    c = coeffs_from_point_masses([PointMass((0.1, 0.2, 0.3), 1.0),
                                  PointMass((-0.3, 0, 0.1), 2.0)], 1.0, 12)
    path = tmp_path / "c.csv"
    c.save(path, threshold=0.0)
    lines = path.read_text().splitlines(keepends=True)
    blanks = tmp_path / "blanks.csv"
    # a blank and a whitespace-only line among the rows, a blank at the end
    blanks.write_text("".join(lines[:5] + ["\n", "  \n"] + lines[5:] + ["\n"]))
    for p in (path, blanks):
        c2 = SHECoefficients.load(p)
        assert c2.n_max == c.n_max
        assert c2.ref_radius == c.ref_radius
        assert c2.GM == c.GM
        assert np.array_equal(c2.coeffs, c.coeffs)


@pytest.mark.parametrize("rows,error", [
    ("2,-5,0.5", "c.csv:4: order -5 exceeds degree 2"),
    ("7,0,0.5", "c.csv:4: degree 7 outside [0, n_max=3]"),
    ("-1,0,0.5", "c.csv:4: degree -1 outside [0, n_max=3]"),
    ("1,1,0.5\n1,1,0.25", "c.csv:5: duplicate entry (1, 1)"),
    ("1,1", "c.csv:4: expected 'n,m,C'"),
    ("1,x,0.5", "c.csv:4: expected 'n,m,C'"),
    ("1,1,inf\n1,0,0.5", "c.csv:4: coefficient 'inf' is not finite"),
    ("1,0,0.5\n1,1,nan", "c.csv:5: coefficient 'nan' is not finite"),
])
def test_coefficients_load_rejects_bad_rows(tmp_path, rows, error):
    path = tmp_path / "c.csv"
    path.write_text("# R=1 GM=1 n_max=3\nn,m,C\n0,0,1\n" + rows + "\n")
    with pytest.raises(ValueError, match=re.escape(error)):
        SHECoefficients.load(path)


@pytest.mark.parametrize("head,error", [
    ("# R=1 n_max=3\nn,m,C", "c.csv:1: metadata lacks GM"),
    ("# R=1 GM n_max=3\nn,m,C", "c.csv:1: expected key=value, got 'GM'"),
    ("# R=1 GM=1 n_max=-1\nn,m,C",
     "c.csv:1: n_max must be non-negative, got -1"),
    ("# R=1 GM=1 n_max=3\nn,C", "c.csv:2: missing 'n,m,C' header"),
    ("# R=0 GM=1 n_max=1\nn,m,C", "c.csv:1: reference radius and GM "
     "must be positive and finite, got R=0.0 GM=1.0"),
    ("# R=1 GM=-2 n_max=1\nn,m,C", "c.csv:1: reference radius and GM "
     "must be positive and finite, got R=1.0 GM=-2.0"),
    ("# R=1 GM=nan n_max=1\nn,m,C", "c.csv:1: reference radius and GM "
     "must be positive and finite, got R=1.0 GM=nan"),
    ("# R=inf GM=1 n_max=1\nn,m,C", "c.csv:1: reference radius and GM "
     "must be positive and finite, got R=inf GM=1.0"),
    ("# R=1 GM=inf n_max=1\nn,m,C", "c.csv:1: reference radius and GM "
     "must be positive and finite, got R=1.0 GM=inf"),
])
def test_coefficients_load_names_bad_metadata(tmp_path, head, error):
    path = tmp_path / "c.csv"
    path.write_text(head + "\n0,0,1\n")
    with pytest.raises(ValueError, match=re.escape(error)):
        SHECoefficients.load(path)


def test_coefficients_threshold_drops_small_entries(tmp_path):
    c = coeffs_from_point_masses([PointMass((0, 0, 0), 1.0)], 1.0, 6)
    path = tmp_path / "c.csv"
    c.save(path, threshold=1e-15)
    body = path.read_text().splitlines()
    assert body[1] == "n,m,C"
    assert len(body) == 3 and body[2].startswith("0,0,")


def _two_mass_coefficients():
    # both at azimuth 0: every m < 0 coefficient is 0, and so is every
    # n + m odd one of the mass on the equator
    return coeffs_from_point_masses([PointMass((0, 0, 0.3), 1.0),
                                     PointMass((0.2, 0, 0), 2.0)], 1.0, 4)


@pytest.mark.parametrize("threshold", [1.0, float("nan"), -1.0])
def test_coefficients_save_rejects_a_threshold_outside_0_1(tmp_path,
                                                           threshold):
    # at 1 the (0, 0) row would go, NaN would keep every row: the file is
    # not opened
    path = tmp_path / "c.csv"
    with pytest.raises(ValueError, match=r"threshold must be finite and in "
                                         r"\[0, 1\), got %r" % threshold):
        _two_mass_coefficients().save(path, threshold=threshold)
    assert not path.exists()


@pytest.mark.parametrize("threshold", [0.0, 1e-15])
def test_coefficients_save_writes_every_row_above_the_threshold(tmp_path,
                                                                threshold):
    c = _two_mass_coefficients()
    path = tmp_path / "c.csv"
    c.save(path, threshold=threshold)
    rows = ["%d,%d,%.17g\n" % (n, m, c.get(n, m))
            for n in range(5) for m in range(-n, n + 1)
            if not threshold or abs(c.get(n, m)) > threshold]
    assert path.read_text() == "".join(
        ["# R=1 GM=3 n_max=4\n", "n,m,C\n"] + rows)
    assert len(rows) == (25 if threshold == 0 else 11)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_series_linearity_in_potentials(seed):
    # superposing arrays superposes truncated potentials (same R)
    rng = np.random.default_rng(seed)
    pa = [PointMass(rng.uniform(-0.3, 0.3, 3), float(rng.uniform(0.5, 2)))]
    pb = [PointMass(rng.uniform(-0.3, 0.3, 3), float(rng.uniform(0.5, 2)))]
    R, n_max = 1.0, 12
    ca = coeffs_from_point_masses(pa, R, n_max)
    cb = coeffs_from_point_masses(pb, R, n_max)
    cab = coeffs_from_point_masses(pa + pb, R, n_max)
    d = Direction(float(rng.uniform(0, math.pi)),
                  float(rng.uniform(0, 2 * math.pi)))
    r = 2.0
    va = evaluate_partial_sum(ca, n_max, r, d)
    vb = evaluate_partial_sum(cb, n_max, r, d)
    vab = evaluate_partial_sum(cab, n_max, r, d)
    assert vab == pytest.approx(va + vb, rel=1e-12)
