"""Gravitational potentials of point masses and smoothed arrays.

Sign convention is positive, V = G m / r.  Outside its support ball a
smoothed point mass has exactly the potential of the equivalent point
mass (shell theorem); inside, the classical split into interior mass
over rho plus the first moment of the remaining shells applies.  All
radial integrals come from the exact profile closed forms.
"""

import math

import numpy as np
from dataclasses import dataclass

from .density import (SPMA, SmoothedPointMass, _blocks, _grid_slab,
                      evaluate_on_grid)

__all__ = ["GravConfig", "potential_point_masses", "potential_spm",
           "potential_spma", "potential_oracle"]


@dataclass(frozen=True)
class GravConfig:
    """Gravitational constant, 1 in model units."""

    G: float = 1.0

    def __post_init__(self):
        if not self.G > 0:
            raise ValueError("G must be positive")


DEFAULT_GRAV = GravConfig()


def potential_point_masses(masses, x, cfg=DEFAULT_GRAV):
    """G * sum m_i / ||x - x_i||; raises at a mass position."""
    pos = np.array([m.position for m in masses])
    mval = np.array([m.mass for m in masses])
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    d = np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=2)
    if np.any(d == 0.0):
        raise ZeroDivisionError("potential evaluated at a point-mass position")
    out = cfg.G * np.sum(mval[None, :] / d, axis=1)
    return float(out[0]) if scalar else out


def potential_spm(spm, x, cfg=DEFAULT_GRAV):
    """Potential of a single smoothed point mass, defined everywhere."""
    return potential_spma(SPMA([spm]), x, cfg)


def potential_spma(spma, x, cfg=DEFAULT_GRAV):
    """Superposition of component potentials, each point taking its terms
    in component order: outside its ball a component acts as its point
    mass, inside as interior mass over rho plus the outer shells."""
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    out = np.zeros(len(pts))
    for pair in _blocks(len(spma) * len(pts)):
        c, p = np.divmod(pair, len(pts))
        rho = np.linalg.norm(pts[p] - spma.centers[c], axis=1)
        v = np.empty(len(pair))
        outside = rho >= spma.radii[c]
        v[outside] = spma.masses[c[outside]] / rho[outside]
        inner, r = c[~outside], rho[~outside]
        m = np.zeros(len(r))       # the interior mass term vanishes at the center
        np.divide(spma.mass_within(inner, r), r, out=m, where=r > 0)
        v[~outside] = m + 4.0 * np.pi * spma.tail_first_moment(inner, r)
        np.add.at(out, p, cfg.G * v)
    return float(out[0]) if scalar else out


def _support_distance(density, x):
    if isinstance(density, SmoothedPointMass):
        density = SPMA([density])
    if isinstance(density, SPMA):
        return float(np.min(np.linalg.norm(x - density.centers, axis=1)
                            - density.radii))
    # grid: distance to the nearest node carrying mass
    nodes = density.node_coordinates()
    mask = np.ravel(density.values, order="C") > 0
    return float(np.min(np.linalg.norm(nodes[mask] - x, axis=1)))


def potential_oracle(density, x, cfg=DEFAULT_GRAV, resolution=128,
                     subcell=1):
    """Brute-force midpoint quadrature of G * int f(y)/||x-y|| dy.

    Independent of the shell-theorem code path.  `x` may be one point or
    an (n, 3) batch sharing the voxelization.  Every evaluation point must
    stay clear of the support (distance > 2 cells) so the 1/r factor is
    resolved; quadrature error is O(h^2) away from the support.

    `subcell` refines the density factor only: each cell carries the
    average of f over subcell^3 interior midpoints while 1/r is still
    evaluated at the cell midpoint.  For densities with sharp support
    boundaries (uniform balls) this cuts the dominant cell-occupancy
    error without changing the quadrature resolution; 1/r itself is
    harmonic away from the support, so its midpoint error is already
    high-order.
    """
    from .density import density_bounding_box, midpoint_nodes

    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts_x = np.atleast_2d(x)
    box = density_bounding_box(density)
    if box is None:
        return 0.0 if scalar else np.zeros(len(pts_x))
    lo, hi = box
    axes, cellvol, widths = midpoint_nodes(lo, hi, resolution)
    h = float(np.max(widths))
    for xe in pts_x:
        if _support_distance(density, xe) <= 2.0 * h:
            raise ValueError("evaluation point too close to the support "
                             "(need clearance > 2 quadrature cells)")
    origin = np.array([a[0] for a in axes])
    subcell = int(subcell)
    if subcell > 1:
        n, s = resolution, subcell
        fine_axes, _, fine_w = midpoint_nodes(lo, hi, n * s)
        fine_origin = np.array([a[0] for a in fine_axes])
        vals = np.empty((n,) * 3)
        for i in range(n):     # one slab of `subcell` fine layers at a time
            fine = _grid_slab(density, fine_origin, fine_w, (n * s,) * 3,
                              i * s, (i + 1) * s)
            vals[i] = fine.reshape(s, n, s, n, s).mean(axis=(0, 2, 4))
    else:
        vals = evaluate_on_grid(density, origin, widths, (resolution,) * 3)
    mask = vals > 0
    if not mask.any():
        return 0.0 if scalar else np.zeros(len(pts_x))
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xx[mask], yy[mask], zz[mask]], axis=-1)
    out = np.empty(len(pts_x))
    for i, xe in enumerate(pts_x):
        dist = np.linalg.norm(pts - xe, axis=1)
        out[i] = cfg.G * cellvol * math.fsum(vals[mask] / dist)
    return float(out[0]) if scalar else out
