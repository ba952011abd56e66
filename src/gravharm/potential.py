"""Gravitational potentials of point masses and smoothed arrays.

Sign convention is positive, V = G m / r.  Outside its support ball a
smoothed point mass has exactly the potential of the equivalent point
mass (shell theorem); inside, the classical split into interior mass
over rho plus the first moment of the remaining shells applies.  All
radial integrals come from the exact profile closed forms.
"""

import math

import numpy as np

from .density import (SPMA, PointMasses, _count, _each_distance_block,
                      _grid_slab, _parallel, midpoint_nodes)

__all__ = ["potential_point_masses", "potential_spm", "potential_spma",
           "potential_oracle", "oracle_clear"]


def _check_G(G):
    if not G > 0:
        raise ValueError("G must be positive")


def _point_mass_sums(masses, x, G=1.0):
    """G * sum m_i / ||x - x_i|| at each point of an (n, 3) batch, NaN
    at a mass position (no other point gives NaN)."""
    pms = PointMasses.of(masses)
    _check_G(G)
    out = np.empty(len(x))

    def body(p, d):
        on_mass = np.any(d == 0.0, axis=1)
        with np.errstate(divide="ignore"):
            np.divide(pms.masses, d, out=d)
        out[p] = G * np.sum(d, axis=1)
        out[p[on_mass]] = np.nan
    _each_distance_block(x, pms.positions, body)
    return out


def potential_point_masses(masses, x, G=1.0):
    """G * sum m_i / ||x - x_i||; raises at a mass position.  A block of
    points at a time against all masses (PointMasses or PointMass
    objects): each point's sum is one np.sum whatever the block."""
    pts = np.asarray(x, dtype=float)
    out = _point_mass_sums(masses, np.atleast_2d(pts), G)
    if np.isnan(out).any():
        raise ZeroDivisionError("potential evaluated at a point-mass "
                                "position")
    return float(out[0]) if pts.ndim == 1 else out


def potential_spm(spm, x, G=1.0):
    """Potential of a single smoothed point mass, defined everywhere."""
    return potential_spma(SPMA([spm]), x, G)


def potential_spma(spma, x, G=1.0):
    """Superposition of component potentials, each point taking its terms
    in component order: outside its ball a component acts as its point
    mass, inside as interior mass over rho plus the outer shells."""
    _check_G(G)
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    out = np.zeros(len(pts))

    def body(p, rho):
        i, c = np.nonzero(rho < spma.radii)
        r = rho[i, c]
        with np.errstate(divide="ignore"):
            v = np.divide(spma.masses, rho, out=rho)
        m = np.zeros(len(r))       # the interior mass term vanishes at the center
        np.divide(spma.mass_within(c, r), r, out=m, where=r > 0)
        v[i, c] = m + 4.0 * np.pi * spma.tail_first_moment(c, r)
        np.add.at(out, np.repeat(p, len(spma)), G * v.ravel())
    _each_distance_block(pts, spma.centers, body)
    return float(out[0]) if scalar else out


def oracle_clear(density, x, resolution=128):
    """Which points of an (n, 3) batch `potential_oracle` at `resolution`
    evaluates: those farther than 2 quadrature cells from the support,
    so that 1/r is resolved."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    resolution = _count("resolution", resolution)
    h = float(np.max(midpoint_nodes(*density.bounding_box(), resolution)[2]))
    if isinstance(density, SPMA):
        centers, radii = density.centers, density.radii
    else:
        # grid: distance to the nearest node carrying mass
        centers = density.origin + density.spacing * np.argwhere(
            density.values > 0)
        radii = 0.0
    dist = np.empty(len(pts))

    def body(p, d):
        d -= radii
        dist[p] = np.min(d, axis=1)
    _each_distance_block(pts, centers, body)
    return dist > 2.0 * h


def potential_oracle(density, x, G=1.0, resolution=128, subcell=1):
    """Brute-force midpoint quadrature of G * int f(y)/||x-y|| dy.

    Shares no radial integral with the shell-theorem code path, only the
    distance kernel, which a test pins to np.linalg.norm.  `x` may be one
    point or an (n, 3) batch sharing the voxelization.  Every evaluation
    point must pass `oracle_clear` (distance > 2 cells from the support)
    so the 1/r factor is resolved; quadrature error is O(h^2) away from
    the support.

    `subcell` refines the density factor only: each cell carries the
    average of f over subcell^3 interior midpoints while 1/r is still
    evaluated at the cell midpoint.  For densities with sharp support
    boundaries (uniform balls) this cuts the dominant cell-occupancy
    error without changing the quadrature resolution; 1/r itself is
    harmonic away from the support, so its midpoint error is already
    high-order.
    """
    _check_G(G)
    n, s = _count("resolution", resolution), _count("subcell", subcell)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts_x = np.atleast_2d(x)
    if not np.all(oracle_clear(density, pts_x, n)):
        raise ValueError("evaluation point too close to the support "
                         "(need clearance > 2 quadrature cells)")
    box = density.bounding_box()
    axes, cellvol, _ = midpoint_nodes(*box, n)
    fine_axes, _, fine_w = midpoint_nodes(*box, n * s)
    fine_origin = np.array([a[0] for a in fine_axes])
    vals = np.empty((n,) * 3)

    def slab(i):               # `subcell` fine layers, one coarse layer
        fine = _grid_slab(density, fine_origin, fine_w, (n * s,) * 3,
                          i * s, (i + 1) * s)
        vals[i] = fine.reshape(s, n, s, n, s).mean(axis=(0, 2, 4))
    _parallel(slab, range(n))
    mask = vals > 0
    pts = np.stack([ax[i] for ax, i in zip(axes, np.nonzero(mask))], axis=-1)
    weights = vals[mask]
    out = np.empty(len(pts_x))

    def body(p, d):
        np.divide(weights, d, out=d)
        out[p] = [G * cellvol * math.fsum(row) for row in d]
    _each_distance_block(pts_x, pts, body)
    return float(out[0]) if scalar else out
