"""Points, balls, unions of balls, Brillouin radii and set distances."""

import numpy as np
from dataclasses import dataclass
from scipy.spatial import cKDTree


def as_vec3(x):
    """Coerce to a finite float array of shape (3,)."""
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %s" % (v.shape,))
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


@dataclass(frozen=True)
class Ball:
    """Closed ball with a strictly positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError("ball radius must be strictly positive")

    def contains(self, points, strict=False):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.linalg.norm(pts - self.center, axis=1)
        return d < self.radius if strict else d <= self.radius


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
    """Max position norm over a non-empty list of point masses.

    Accepts PointMass objects (anything with .position) or raw 3-vectors.
    """
    masses = list(masses)
    if not masses:
        raise ValueError("empty point-mass list")
    pos = np.array([getattr(m, "position", m) for m in masses], dtype=float)
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


def _sphere_sample_count(radius, target_spacing):
    return max(4, int(np.ceil(4.0 * np.pi * radius**2 / target_spacing**2)))


def boundary_sample(region, target_spacing):
    """Quasi-uniform point sample of the boundary of a union of balls.

    Each sphere is sampled on a Fibonacci lattice at roughly
    `target_spacing` spacing; points strictly inside any other ball are
    discarded.  Deterministic given the inputs; documented tolerance for
    distances computed from the sample is 2 * target_spacing.
    """
    target_spacing = float(target_spacing)
    if not target_spacing > 0:
        raise ValueError("target_spacing must be positive")
    centers, radii = region.centers, region.radii
    out = []
    # split the occlusion test: few large balls checked densely, the
    # rest through a KD-tree on centers
    big = np.nonzero(radii > 8 * np.median(radii))[0]
    small = np.nonzero(radii <= 8 * np.median(radii))[0]
    tree = cKDTree(centers[small]) if small.size else None
    r_small_max = radii[small].max() if small.size else 0.0
    eps = 1e-12
    for i, (center, radius) in enumerate(zip(centers, radii)):
        pts = center + radius * fibonacci_sphere(
            _sphere_sample_count(radius, target_spacing)
        )
        keep = np.ones(len(pts), dtype=bool)
        for j in big:
            if j == i:
                continue
            keep &= np.linalg.norm(pts - centers[j], axis=1) >= radii[j] - eps
        if tree is not None and np.any(keep):
            idx_lists = tree.query_ball_point(pts[keep], r_small_max)
            sub = np.nonzero(keep)[0]
            for k, lst in zip(sub, idx_lists):
                for jj in lst:
                    j = small[jj]
                    if j == i:
                        continue
                    if np.linalg.norm(pts[k] - centers[j]) < radii[j] - eps:
                        keep[k] = False
                        break
        if np.any(keep):
            out.append(pts[keep])
    if not out:
        # fully occluded spheres cannot all occur: the extremal ball always
        # contributes; guard anyway
        raise RuntimeError("boundary sample came out empty")
    return np.vstack(out)


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
