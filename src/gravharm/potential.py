"""Gravitational potentials of point masses and smoothed arrays.

Sign convention is positive, V = G m / r.  Outside its support ball a
smoothed point mass has exactly the potential of the equivalent point
mass (shell theorem); inside, the classical split into interior mass
over rho plus the first moment of the remaining shells applies.  All
radial integrals come from the exact profile closed forms.
"""

import math

import numpy as np

from .density import (_DISTANCE_BLOCK, SPMA, PointMasses, _block_rows,
                      _count, _each_distance_block, _grid_slab, _parallel,
                      _points, midpoint_nodes)

__all__ = ["potential_point_masses", "potential_spm", "potential_spma",
           "potential_oracle", "oracle_clear"]


def _check_G(G):
    if not 0 < G < math.inf:
        raise ValueError("G must be positive and finite, got %r" % G)


def _point_mass_sums(masses, x, G=1.0):
    """G * sum m_i / ||x - x_i|| at each point of an (n, 3) batch, NaN
    at a mass position (no other point gives NaN)."""
    pms = PointMasses.of(masses)
    _check_G(G)
    out = np.empty(len(x))

    def body(p, d):
        with np.errstate(divide="ignore"):
            np.divide(pms.masses, d, out=d)
        out[p] = G * np.sum(d, axis=1)
        # masses are positive, so a point on one sums to +inf: only the
        # non-finite rows are tested for a zero distance, which is every
        # squared coordinate difference being zero
        odd = p[~np.isfinite(out[p])]
        if odd.size:
            on_mass = np.any(np.all((x[odd, None] - pms.positions) ** 2 == 0.0,
                                    axis=2), axis=1)
            out[odd[on_mass]] = np.nan
    _each_distance_block(x, pms.positions, body)
    return out


def potential_point_masses(masses, x, G=1.0):
    """G * sum m_i / ||x - x_i||; raises ZeroDivisionError at a mass
    position and ValueError at a non-finite point.  A block of points at
    a time against all masses (PointMasses or PointMass objects): each
    point's sum is one np.sum whatever the block."""
    pts, scalar = _points(x)
    out = _point_mass_sums(masses, pts, G)
    if np.isnan(out).any():
        raise ZeroDivisionError("potential evaluated at a point-mass "
                                "position")
    return float(out[0]) if scalar else out


def potential_spm(spm, x, G=1.0):
    """Potential of a single smoothed point mass, defined everywhere."""
    return potential_spma(SPMA([spm]), x, G)


def potential_spma(spma, x, G=1.0):
    """Superposition of component potentials, each point taking its terms
    in component order: outside its ball a component acts as its point
    mass, inside as interior mass over rho plus the outer shells.  A
    non-finite point raises ValueError."""
    _check_G(G)
    pts, scalar = _points(x)
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
    so that 1/r is resolved.  A non-finite point raises ValueError."""
    pts, _ = _points(x)
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


def _subcell_mean(fine, s):
    """fine.reshape(s, n, s, n, s).mean(axis=(0, 2, 4)) for an (s, n*s,
    n*s) slab, bit for bit, in the order numpy adds: each run of s along
    the last axis by itself (its pairwise sum, which adds in sequence below
    8 terms), then the run sums in axis-0, then axis-2 order, and the sum
    over s**3.  Written out as array adds, the runs take s - 1 strided adds
    rather than one short reduction per run."""
    n = fine.shape[1] // s
    v = fine.reshape(s, n, s, n, s)
    if n == 1:                       # numpy merges the reduced axes
        return v.mean(axis=(0, 2, 4))
    out = None
    for a in range(s):               # one x layer's runs at a time
        if s >= 8:
            runs = v[a].sum(axis=-1)
        else:
            runs = v[a, ..., 0].copy()
            for k in range(1, s):
                runs += v[a, ..., k]
        for b in range(s):
            if out is None:
                out = runs[:, 0].copy()
            else:
                out += runs[:, b]
    out /= s ** 3
    return out


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

    The density is voxelized once per call, on every core, in slabs of
    whole coarse layers: as many as `_DISTANCE_BLOCK` fine nodes hold,
    and one where a layer alone holds more.  Each node takes its terms
    in component order whatever its slab, and each coarse layer is
    averaged by itself, so the slab size changes no bits.

    Each point's cell terms f / r are all positive and add in one np.sum
    over its row, numpy's pairwise sum, which carries a relative error of
    about log2(cells) * 2**-53 and the same bits whatever the slabs, the
    distance chunks or the cores.  A non-finite point raises ValueError.
    """
    _check_G(G)
    n, s = _count("resolution", resolution), _count("subcell", subcell)
    pts_x, scalar = _points(x)
    if not np.all(oracle_clear(density, pts_x, n)):
        raise ValueError("evaluation point too close to the support "
                         "(need clearance > 2 quadrature cells)")
    box = density.bounding_box()
    axes, cellvol, _ = midpoint_nodes(*box, n)
    fine_axes, _, fine_w = midpoint_nodes(*box, n * s)
    fine_origin = np.array([a[0] for a in fine_axes])
    vals = np.empty((n,) * 3)
    # whole coarse layers per slab, as many as _DISTANCE_BLOCK fine nodes
    # hold, at least one
    layers = _block_rows(s * (n * s) ** 2, _DISTANCE_BLOCK)

    def slab(i):               # coarse layers i.. of `subcell` fine layers
        stop = min(i + layers, n)
        fine = _grid_slab(density, fine_origin, fine_w, (n * s,) * 3,
                          i * s, stop * s)
        for k in range(i, stop):
            vals[k] = _subcell_mean(fine[(k - i) * s:(k - i + 1) * s], s)
    _parallel(slab, range(0, n, layers))
    mask = vals > 0
    pts = np.stack([ax[i] for ax, i in zip(axes, np.nonzero(mask))], axis=-1)
    weights = vals[mask]
    out = np.empty(len(pts_x))

    def body(p, d):
        np.divide(weights, d, out=d)
        out[p] = G * cellvol * np.sum(d, axis=1)
    _each_distance_block(pts_x, pts, body)
    return float(out[0]) if scalar else out
