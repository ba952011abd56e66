"""Balls, unions, Brillouin radii, Hausdorff distances, perturbations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravharm import (Ball, BallRegion, as_vec3, boundary_sample,
                      brillouin_radius, fibonacci_sphere,
                      general_position_perturb, hausdorff_distance,
                      pointmass_brillouin_radius, PointMass)


# ---------------------------------------------------------------------------
# basic types

def test_as_vec3_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        as_vec3([1.0, 2.0])
    with pytest.raises(ValueError):
        as_vec3([1.0, np.nan, 0.0])
    assert as_vec3((1, 2, 3)).tolist() == [1.0, 2.0, 3.0]


def test_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        Ball((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        Ball((0, 0, 0), -1.0)


def test_ball_contains_closed_vs_strict():
    b = Ball((0, 0, 0), 1.0)
    on_rim = np.array([1.0, 0.0, 0.0])
    assert b.contains(on_rim)[0]
    assert not b.contains(on_rim, strict=True)[0]


@pytest.mark.parametrize("centers, radii", [
    (np.empty((0, 3)), np.empty(0)),
    ([[0.0, np.nan, 0.0]], [1.0]),
    ([[0.0, 0.0, 0.0]], [0.0]),
    ([[0.0, 0.0, 0.0]], [-1.0]),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0]),
], ids=["empty", "nan-center", "zero-radius", "negative-radius",
        "mismatched-shapes"])
def test_ball_region_requires_a_ball(centers, radii):
    with pytest.raises(ValueError):
        BallRegion(centers, radii)


# ---------------------------------------------------------------------------
# Brillouin radii

def test_brillouin_radius_two_balls():
    # [TRIVIAL] max over balls of ||center|| + radius
    reg = BallRegion([(1, 0, 0), (-1, 0, 0)], [1.5, 1.5])
    assert len(reg) == 2
    assert brillouin_radius(reg) == 2.5


def test_brillouin_radius_off_axis():
    # [DERIVED] ||(3,4,0)|| + 2 = 7
    reg = BallRegion([(3, 4, 0)], [2.0])
    assert brillouin_radius(reg) == pytest.approx(7.0, abs=1e-15)


def test_pointmass_brillouin_radius():
    masses = [PointMass((0.6, 0, 0), 1.0), PointMass((0, -0.8, 0), 2.0)]
    assert pointmass_brillouin_radius(masses) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        pointmass_brillouin_radius([])


# ---------------------------------------------------------------------------
# Hausdorff distance

def test_hausdorff_hand_values():
    # [DERIVED] single pair at distance 5
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    assert hausdorff_distance(a, b) == pytest.approx(5.0)
    # [DERIVED] asymmetric cloud: sup_a dist = 1, sup_b dist = 4
    a = np.array([[0, 0, 0], [1, 0, 0]])
    b = np.array([[0, 0, 0], [5, 0, 0]])
    assert hausdorff_distance(a, b) == pytest.approx(4.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_hausdorff_symmetry_and_identity(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rng.integers(1, 8), 3))
    b = rng.normal(size=(rng.integers(1, 8), 3))
    assert hausdorff_distance(a, a) == 0.0
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_hausdorff_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(5, 3)) for _ in range(3))
    assert hausdorff_distance(a, c) <= (hausdorff_distance(a, b)
                                        + hausdorff_distance(b, c) + 1e-12)


# ---------------------------------------------------------------------------
# sphere sampling

def test_fibonacci_sphere_unit_norms_and_determinism():
    pts = fibonacci_sphere(200)
    assert pts.shape == (200, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(pts, fibonacci_sphere(200))


def test_boundary_sample_single_ball_on_sphere():
    reg = BallRegion([(0.5, 0, 0)], [2.0])
    pts = boundary_sample(reg, 0.2)
    d = np.linalg.norm(pts - np.array([0.5, 0, 0]), axis=1)
    assert np.allclose(d, 2.0, atol=1e-12)


def test_boundary_sample_occlusion():
    # points strictly inside the other ball must be discarded
    reg = BallRegion([(0, 0, 0), (1.0, 0, 0)], [1.0, 1.0])
    pts = boundary_sample(reg, 0.1)
    d0 = np.linalg.norm(pts - np.array([0.0, 0, 0]), axis=1)
    d1 = np.linalg.norm(pts - np.array([1.0, 0, 0]), axis=1)
    assert np.all((d0 >= 1.0 - 1e-9) | (d1 >= 1.0 - 1e-9))
    # Hausdorff distance from the sample to the analytic boundary is
    # bounded by the documented 2 * spacing tolerance
    assert np.all(np.minimum(np.abs(d0 - 1.0), np.abs(d1 - 1.0)) < 0.2)


# ---------------------------------------------------------------------------
# general position

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 40))
def test_general_position_perturb_distinct_and_bounded(seed, n):
    rng = np.random.default_rng(seed)
    centers = np.round(rng.normal(size=(n, 3)), 1)   # many norm collisions
    max_shift = 1e-3
    out = general_position_perturb(centers, max_shift)
    norms = np.linalg.norm(out, axis=1)
    assert len(np.unique(norms)) == n
    assert np.all(np.linalg.norm(out - centers, axis=1) <= max_shift + 1e-15)


def test_general_position_perturb_noop_when_separated():
    centers = np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    out = general_position_perturb(centers, 1e-3)
    assert np.array_equal(out, centers)


def _perturb_loop(centers, max_shift):
    """Reference: the per-center rescaling loop general_position_perturb
    replaced by one masked array step."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float)).copy()
    n = len(centers)
    norms = np.linalg.norm(centers, axis=1)
    if n > 1:
        if np.all(np.diff(np.sort(norms)) > 2 * max_shift):
            return centers
    elif n == 1:
        return centers
    eta = max_shift / (n + 1)
    for attempt in range(64):
        shifts = np.arange(n) * (eta / np.pi**attempt)
        new_norms = norms + shifts
        if len(np.unique(new_norms)) == n:
            out = centers.copy()
            for i in range(n):
                if shifts[i] == 0.0:
                    continue
                if norms[i] > 0:
                    out[i] = centers[i] * (new_norms[i] / norms[i])
                else:
                    out[i] = np.array([shifts[i], 0.0, 0.0])
            return out
    raise RuntimeError("could not separate center norms deterministically")


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 40))
def test_general_position_perturb_matches_loop_bit_for_bit(seed, n):
    rng = np.random.default_rng(seed)
    centers = np.round(rng.normal(size=(n, 3)), 1)   # many norm collisions
    centers[rng.integers(n, size=2)] = 0.0            # origin, maybe twice
    out = general_position_perturb(centers, 1e-3)
    assert out.tobytes() == _perturb_loop(centers, 1e-3).tobytes()


def test_general_position_perturb_origin_moves_along_x():
    out = general_position_perturb(np.zeros((2, 3)), 1e-2)
    norms = np.linalg.norm(out, axis=1)
    assert len(np.unique(norms)) == 2
    assert out[1][1] == 0.0 and out[1][2] == 0.0
