"""Shared fixtures: small grid densities and random mass arrays."""

import numpy as np
import pytest

from gravharm import (GridDensity, PointMass, SPMA, SmoothedPointMass,
                      constant_taper, cosine_bump, quadratic_bump,
                      table_profile)
from gravharm import density


def unit_ball_grid(n):
    """Constant unit-ball indicator sampled on an n^3 grid over [-1, 1]^3."""
    h = 2.0 / (n - 1)
    ax = -1.0 + h * np.arange(n)
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
    vals = (xx**2 + yy**2 + zz**2 <= 1.0).astype(float)
    return GridDensity((-1.0, -1.0, -1.0), h, vals)


def random_point_masses(seed, max_count=10, radius=1.0):
    """Up to max_count masses drawn uniformly from the ball of that radius."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, max_count + 1))
    pts = rng.normal(size=(k, 3))
    pts *= (radius * rng.uniform(0, 1, k) ** (1.0 / 3.0)
            / np.linalg.norm(pts, axis=1))[:, None]
    ms = rng.uniform(0.1, 1.0, k)
    return [PointMass(p, m) for p, m in zip(pts, ms)]


def unblocked_potential_point_masses(masses, x, G=1.0):
    """potential_point_masses before it ran in point blocks, kept as the
    reference: one (n_points, N, 3) difference array for all points."""
    pos = np.array([m.position for m in masses])
    mval = np.array([m.mass for m in masses])
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    d = np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=2)
    return G * np.sum(mval[None, :] / d, axis=1)


def mixed_spma():
    """Every profile kind, 2-, 3- and 4-knot tables (one not vanishing at
    its rim), overlapping supports, one overhanging and one missing the
    box [-1, 1]^3."""
    return SPMA([
        SmoothedPointMass((0.0, 0.0, 0.0), quadratic_bump(1.0, 0.8)),
        SmoothedPointMass((0.4, 0.2, 0.0), cosine_bump(1.5, 0.5)),
        SmoothedPointMass((-0.3, 0.1, 0.35), constant_taper(2.0, 0.45, 0.1)),
        SmoothedPointMass((0.1, -0.4, 0.2), table_profile([0.0, 0.3], [1.2, 0.0])),
        SmoothedPointMass((-0.2, -0.2, -0.3), table_profile(
            [0.0, 0.25], [0.7, 0.7], check_boundary=False)),
        SmoothedPointMass((0.3, 0.3, -0.3), table_profile(
            [0.0, 0.1, 0.2, 0.35], [0.5, 0.9, 0.4, 0.0])),
        SmoothedPointMass((0.9, 0.0, 0.8), cosine_bump(0.8, 0.3)),
        SmoothedPointMass((-0.95, 0.9, 0.0), constant_taper(1.0, 0.2, 0.05)),
        SmoothedPointMass((3.0, 3.0, 3.0), quadratic_bump(2.0, 0.4)),
        SmoothedPointMass((0.05, 0.0, -0.05), cosine_bump(0.3, 0.6)),
    ])


@pytest.fixture(scope="session")
def ball16():
    return unit_ball_grid(16)


def across_workers(monkeypatch, call):
    """call() with the default worker count, then with density._WORKERS
    at 1 (the inline loop) and at 3 (helper threads even on one core)."""
    out = [call()]
    for workers in (1, 3):
        with monkeypatch.context() as m:
            m.setattr(density, "_WORKERS", workers)
            out.append(call())
    return out
