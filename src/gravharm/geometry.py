"""Points, unions of balls, Brillouin radii and set distances."""

import numpy as np
from dataclasses import dataclass


def as_vec3(x):
    """Coerce to a finite float array of shape (3,)."""
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %s" % (v.shape,))
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


@dataclass(frozen=True, eq=False)
class BallRegion:
    """Finite union of closed balls: (N, 3) centers and (N,) radii."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or not len(r) or c.shape != (len(r), 3):
            raise ValueError("BallRegion needs N >= 1 balls: (N, 3) centers "
                             "and N radii, got %s and %s" % (c.shape, r.shape))
        if not (np.all(np.isfinite(c)) and np.all((r > 0) & np.isfinite(r))):
            raise ValueError("ball centers must be finite and radii "
                             "positive and finite")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    def __len__(self):
        return len(self.radii)


def brillouin_radius(region):
    """Radius of the smallest origin-centered sphere containing the region.

    Exact: max over balls of ||center|| + radius.
    """
    c, r = region.centers, region.radii
    return float(np.max(np.linalg.norm(c, axis=1) + r))


def pointmass_brillouin_radius(masses):
    """Max position norm of a point-mass array (PointMasses, or a
    non-empty sequence of PointMass objects)."""
    from .density import PointMasses
    pos = PointMasses.of(masses).positions
    return float(np.max(np.linalg.norm(pos, axis=1)))


def hausdorff_distance(a, b):
    """Hausdorff distance between two finite point samples.

    Both inputs are (n, 3) arrays of sample points.  Returns
    max(sup_a dist(a, B), sup_b dist(b, A)).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("point samples must be non-empty")
    from scipy.spatial import cKDTree
    ta, tb = cKDTree(a), cKDTree(b)
    d_ab = np.max(tb.query(a, k=1)[0])
    d_ba = np.max(ta.query(b, k=1)[0])
    return float(max(d_ab, d_ba))


def fibonacci_sphere(n):
    """n quasi-uniform unit vectors from the spherical Fibonacci lattice."""
    n = int(n)
    if n < 1:
        raise ValueError("need at least one point")
    i = np.arange(n, dtype=float)
    # golden-angle spiral in (z, phi)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def general_position_perturb(centers, max_shift):
    """Nudge centers radially so all norms are pairwise distinct.

    Deterministic: the i-th center moves outward by i * eta with
    eta = max_shift / (count + 1); if the input norms are already
    separated by more than 2 * max_shift the input is returned
    unchanged.  Centers at the origin move along +x.
    """
    max_shift = float(max_shift)
    if not max_shift > 0:
        raise ValueError("max_shift must be positive")
    centers = np.atleast_2d(np.asarray(centers, dtype=float)).copy()
    n = len(centers)
    norms = np.linalg.norm(centers, axis=1)
    if n > 1:
        gaps = np.diff(np.sort(norms))
        if np.all(gaps > 2 * max_shift):
            return centers
    elif n == 1:
        return centers

    eta = max_shift / (n + 1)
    for attempt in range(64):
        scale = eta / np.pi**attempt
        shifts = np.arange(n) * scale
        new_norms = norms + shifts
        if len(np.unique(new_norms)) == n:
            move = shifts != 0.0
            scale, origin = move & (norms > 0), move & ~(norms > 0)
            out = centers.copy()
            out[scale] *= (new_norms[scale] / norms[scale])[:, None]
            out[origin] = shifts[origin, None] * np.array([1.0, 0.0, 0.0])
            return out
    raise RuntimeError("could not separate center norms deterministically")
