"""Spherical-harmonic machinery.

Real harmonics are 4-pi fully normalized (geodesy convention, no
Condon-Shortley phase): the mean square of each Ybar_{n,m} over the unit
sphere is 1, and Ybar_{n,0} = sqrt(2n+1) P_n.  Negative orders carry the
sin(|m| phi) part.  Every associated Legendre value comes from one
kernel, `_legendre_blocks`, validated through degree 1800; past about
2000 its sectoral seeds underflow at mid colatitudes, and scaled seeds
(Holmes & Featherstone 2002, J. Geodesy 76:279-299) are the way beyond.

Coefficients are stored mass-normalized: GM carries the scale and
C_{0,0} = 1, so the potential series reads
(GM/R) * sum (R/r)^(n+1) C_{n,m} Ybar_{n,m}.
"""

import functools
import math
import warnings

import numpy as np
from dataclasses import dataclass

from . import density
from .density import PointMasses

__all__ = ["Direction", "SHECoefficients", "legendre_p", "ynm_bar",
           "ynm_table", "coeffs_from_point_masses",
           "coeffs_from_sphere_quadrature", "pointmass_direction_sums",
           "evaluate_partial_sum", "series_value",
           "direction_term_sequence", "direction_coefficient_table",
           "fibonacci_directions"]


@dataclass(frozen=True)
class Direction:
    """Colatitude theta in [0, pi], longitude phi in [0, 2 pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError("phi must lie in [0, 2 pi)")

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float)
        r = np.linalg.norm(v)
        if r == 0:
            raise ValueError("zero vector has no direction")
        theta = math.acos(min(1.0, max(-1.0, v[2] / r)))
        phi = math.atan2(v[1], v[0]) % (2.0 * np.pi)
        return cls(theta, phi)


def fibonacci_directions(k):
    """k quasi-uniform directions from the spherical Fibonacci lattice."""
    from .geometry import fibonacci_sphere
    return [Direction.from_vector(v) for v in fibonacci_sphere(k)]


def legendre_p(n, x):
    """Legendre polynomial P_n(x) = Pbar_{n,0}(x) / sqrt(2n+1) on [-1, 1]."""
    n = int(n)
    if n < 0:
        raise ValueError("degree must be non-negative")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    u = x.reshape(-1)
    p = np.empty_like(u)
    for cols, degrees in _legendre_blocks(u, None, n, m_max=0):
        for degree, pbar in degrees:
            if degree == n:
                p[cols] = pbar[0] / math.sqrt(2 * n + 1)
    return p.reshape(x.shape) if x.ndim else float(p[0])


# Points per column block times n_max + 1 (times 1 for the zonal slice).
# The full kernel's buffers hold four such blocks (16 MB), so memory
# stays O(n_max * block) whatever the point count; smaller blocks spend
# more time in per-call overhead.
_BLOCK_ELEMENTS = 1 << 19


@functools.lru_cache(maxsize=8)
def _recurrence_table(n_max, m_max, m_min=0):
    """Recurrence coefficients for degrees 0..n_max and orders m_min..m_max,
    built once per (n_max, m_max, m_min).

    a[n] holds a_{n,m} for m = m_min..min(n-1, m_max) and b[n] holds
    b_{n,m} for m = m_min..min(n-2, m_max), both as (count, 1) columns,
    so their lengths are the rows each step of the column recurrence
    updates; sectoral[n] is the factor taking Pbar_{n-1,n-1} / sin to
    Pbar_{n,n}.
    """
    a, b = [None], [None]
    for n in range(1, n_max + 1):
        m = np.arange(m_min, min(n, m_max + 1))
        a.append(np.sqrt((2 * n - 1) * (2 * n + 1)
                         / ((n - m) * (n + m)))[:, None])
        m = np.arange(m_min, min(n - 1, m_max + 1))
        b.append(-np.sqrt((2 * n + 1) * (n + m - 1) * (n - m - 1)
                          / ((n - m) * (n + m) * (2 * n - 3)))[:, None])
    k = np.arange(n_max + 1)
    sectoral = np.sqrt((2 * k + 1) / np.maximum(2 * k, 1))
    sectoral[1:2] = math.sqrt(3.0)      # order 0 -> 1 also gains sqrt(2)
    return a, b, sectoral


def _legendre_blocks(u, s, n_max, ratio=1.0, m_max=None, m_min=0):
    """The fully normalized Legendre kernel, streamed by degree.

    u = cos(theta) and s = sin(theta) are 1-D arrays over k points.
    Yields (cols, degrees) for consecutive column blocks `cols` (slices
    of the point axis) of _BLOCK_ELEMENTS // (n_max + 1) points, so that
    every order range sees the same blocks (the zonal slice without s
    takes _BLOCK_ELEMENTS); `degrees` yields (n, P) for n = m_min..n_max,
    P[i] = ratio^n Pbar_{n,m_min+i}(u[cols]) for orders
    m = m_min..min(n, m_max), shape (rows, block).  P is a view of a
    buffer that later steps overwrite.  m_max defaults to n_max (every
    order); m_max = 0 is the zonal slice, O(n_max) per point, which needs
    no s (pass None).

    Forward column recurrence, every carried order at once:
    P_{n,m} = (a_{n,m} ratio u) P_{n-1,m} + (b_{n,m} ratio^2) P_{n-2,m},
    seeded by the sectoral P_{n,n} = (P_{n-1,n-1} ratio s) f_n.  An order
    range from m_min > 0 first runs the sectoral chain up to
    P_{m_min,m_min}, then carries rows m_min..m_max only.  Each row is
    computed alone, so bounds on the orders leave the rows they keep bit
    for bit.  With ratio 1 every product by it is exact, so P is Pbar
    bit for bit.

    Validated range: the addition theorem sum_m Pbar_{n,m}^2 = 2n+1
    holds to 1e-11 through n = 1800 at colatitudes 0.5 to 89.9 degrees.
    Beyond that the sectoral seeds underflow: at 20 degrees the sum is
    off by 2e-4 at n = 2000 and by 0.25 at n = 2200.
    """
    m_max = n_max if m_max is None else min(m_max, n_max)
    table = _recurrence_table(n_max, m_max, m_min)
    ratio = np.broadcast_to(np.asarray(ratio, dtype=float), u.shape)
    width = max(1, _BLOCK_ELEMENTS // (1 if s is None else n_max + 1))
    for start in range(0, len(u), width):
        cols = slice(start, start + width)
        yield cols, _degree_steps(u[cols], None if s is None else s[cols],
                                  ratio[cols], n_max, m_min, m_max, *table)


def _degree_steps(u, s, ratio, n_max, m_min, m_max, a, b, sectoral):
    """`_legendre_blocks`' degrees for one column block, from
    `_recurrence_table(n_max, m_max, m_min)`."""
    ru, r2 = ratio * u, ratio * ratio
    rs = ratio * s if m_max else None
    # one allocation: the three latest degrees and a work block
    bufs = np.empty((4, m_max - m_min + 1, len(u)))
    tmp = bufs[3]
    p = bufs[m_min % 3, 0]
    p[...] = 1.0
    for n in range(1, m_min + 1):       # the sectoral chain to P_{m_min,m_min}
        p *= rs
        p *= sectoral[n]
    yield m_min, bufs[m_min % 3, :1]
    for n in range(m_min + 1, n_max + 1):
        p, p1, p2 = bufs[n % 3], bufs[(n - 1) % 3], bufs[(n - 2) % 3]
        an, bn = a[n], b[n]
        k, j = len(an), len(bn)
        np.multiply(an, ru, out=p[:k])
        p[:k] *= p1[:k]
        if j:
            t = tmp[:j]
            np.multiply(bn, r2, out=t)
            t *= p2[:j]
            p[:j] += t
        if n <= m_max:
            np.multiply(p1[k - 1], rs, out=p[k])
            p[k] *= sectoral[n]
            k += 1
        yield n, p[:k]


def ynm_bar(n, m, d):
    """Fully normalized real harmonic Ybar_{n,m} at a direction."""
    n, m = int(n), int(m)
    if abs(m) > n:
        raise ValueError("|m| must not exceed n")
    return float(ynm_table(n, d.theta, d.phi)[n, n + m])


def ynm_table(n_max, theta, phi):
    """Full (n_max+1, 2 n_max+1) table Y[n, n_max + m] at one direction."""
    mphi = np.arange(n_max + 1) * phi
    cosm, sinm = np.cos(mphi), np.sin(mphi)
    Y = np.zeros((n_max + 1, 2 * n_max + 1))
    for _, degrees in _legendre_blocks(np.array([math.cos(theta)]),
                                       np.array([math.sin(theta)]), n_max):
        for n, p in degrees:
            p = p[:, 0]
            # orders -n..-1 pair with |m| = n..1
            Y[n, n_max:n_max + n + 1] = p * cosm[:n + 1]
            Y[n, n_max - n:n_max] = p[n:0:-1] * sinm[n:0:-1]
    return Y


class SHECoefficients:
    """Triangular coefficient array with reference radius and GM scale.

    C has shape (n_max+1, 2 n_max+1); order m is stored at column
    n_max + m.  Mass-normalized sets have C[0, 0] = 1.
    """

    def __init__(self, ref_radius, GM, n_max, coeffs):
        self.ref_radius = float(ref_radius)
        self.GM = float(GM)
        self.n_max = int(n_max)
        if not (0 < self.ref_radius < math.inf and 0 < self.GM < math.inf):
            raise ValueError("reference radius and GM must be positive and "
                             "finite, got R=%r GM=%r"
                             % (self.ref_radius, self.GM))
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_max + 1, 2 * self.n_max + 1):
            raise ValueError("coefficient array has wrong shape")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.coeffs = coeffs

    def get(self, n, m):
        if abs(m) > n or n > self.n_max:
            raise IndexError("order out of range")
        return float(self.coeffs[n, self.n_max + m])

    def save(self, path, threshold=0.0):
        with open(path, "w") as fh:
            fh.write("# R=%.17g GM=%.17g n_max=%d\n"
                     % (self.ref_radius, self.GM, self.n_max))
            fh.write("n,m,C\n")
            for n in range(self.n_max + 1):
                for m in range(-n, n + 1):
                    c = self.coeffs[n, self.n_max + m]
                    if threshold and abs(c) <= threshold:
                        continue
                    fh.write("%d,%d,%.17g\n" % (n, m, c))

    @classmethod
    def load(cls, path):
        """Read a coefficient CSV; a bad metadata line or row raises
        ValueError naming path:line."""
        with open(path) as fh:
            try:
                R, GM, n_max = _metadata(fh.readline().strip())
            except ValueError as exc:
                raise ValueError("%s:1: %s" % (path, exc))
            header = fh.readline().strip()
            if header != "n,m,C":
                raise ValueError("%s:2: missing 'n,m,C' header" % path)
            C = np.zeros((n_max + 1, 2 * n_max + 1))
            seen = set()
            for lineno, line in enumerate(fh, 3):
                line = line.strip()
                if not line:
                    continue
                where = "%s:%d" % (path, lineno)
                try:
                    n_s, m_s, c_s = line.split(",")
                    n, m, c = int(n_s), int(m_s), float(c_s)
                except ValueError:
                    raise ValueError("%s: expected 'n,m,C', got %r"
                                     % (where, line))
                if not 0 <= n <= n_max:
                    raise ValueError("%s: degree %d outside [0, n_max=%d]"
                                     % (where, n, n_max))
                if abs(m) > n:
                    raise ValueError("%s: order %d exceeds degree %d"
                                     % (where, m, n))
                if (n, m) in seen:
                    raise ValueError("%s: duplicate entry (%d, %d)"
                                     % (where, n, m))
                if not math.isfinite(c):
                    raise ValueError("%s: coefficient %r is not finite"
                                     % (where, c_s))
                seen.add((n, m))
                C[n, n_max + m] = c
        try:
            return cls(R, GM, n_max, C)
        except ValueError as exc:       # R or GM not positive and finite
            raise ValueError("%s:1: %s" % (path, exc))


def _metadata(line):
    """(R, GM, n_max) from a '# R=... GM=... n_max=...' line."""
    if not line.startswith("#"):
        raise ValueError("missing metadata line in coefficient file")
    kv = {}
    for tok in line[1:].split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError("expected key=value, got %r" % tok)
        kv[key] = value
    missing = [k for k in ("R", "GM", "n_max") if k not in kv]
    if missing:
        raise ValueError("metadata lacks %s" % ", ".join(missing))
    R, GM = float(kv["R"]), float(kv["GM"])
    return R, GM, _nonnegative("n_max", kv["n_max"])


def _nonnegative(name, value):
    value = int(value)
    if value < 0:
        raise ValueError("%s must be non-negative, got %d" % (name, value))
    return value


def _mass_weights(masses, R, n_max):
    """(positions, |x_i|, |x_i|/R, m_i/M, M, n_max) of a point-mass array
    checked for expansion about the origin at reference radius R; warns
    when a mass sits outside the reference sphere."""
    pms = PointMasses.of(masses)
    R = float(R)
    if not 0 < R < math.inf:
        raise ValueError("reference radius must be positive and finite, "
                         "got %r" % R)
    n_max = _nonnegative("n_max", n_max)
    pos, mval = pms.positions, pms.masses
    M = float(mval.sum())
    d = np.linalg.norm(pos, axis=1)
    if np.any(d > R):
        warnings.warn("point mass outside the reference sphere; coefficient "
                      "decay is not guaranteed", stacklevel=3)
    return pos, d, d / R, mval / M, M, n_max


def _unit_cosines(dots, d):
    """dots / d clipped to [-1, 1], and 1 where d = 0 (a mass at the
    origin has a zonal expansion about any axis)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(d > 0, dots / np.where(d > 0, d, 1.0), 1.0)
    return np.clip(u, -1.0, 1.0)


def _order_ranges(n_max, points):
    """Orders 0..n_max as (m_min, m_max) ranges of about equal triangle
    work, one per core, cut at m_k = round(n_max (1 - sqrt(1 - k / W)));
    a single range while points * (n_max + 1) < density._BLOCK, where
    helper threads cost more than they save."""
    workers = density._WORKERS
    if points * (n_max + 1) < density._BLOCK:
        workers = 1
    cuts = [round(n_max * (1.0 - math.sqrt(1.0 - k / workers)))
            for k in range(workers)] + [n_max + 1]
    return [(lo, hi - 1) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def coeffs_from_point_masses(masses, R, n_max, G=1.0):
    """Analytic expansion coefficients of a finite point-mass array
    (PointMasses, or a sequence of PointMass objects).

    C_{n,m} = (1/(M (2n+1))) sum_i m_i (||x_i||/R)^n Ybar_{n,m}(x_i_hat),
    with GM = G * sum m_i.  Exact path, no surface quadrature.  Warns when
    a mass sits outside the reference sphere.

    The orders split into `_order_ranges`, one per core, run through
    density._parallel once.  Each range streams every column block of
    the masses through `_legendre_blocks(..., m_max=hi, m_min=lo)`,
    builds the phase factors of its own orders only and adds only to its
    own columns of C (n_max + m and n_max - m); the blocks are the same
    for every range, so C keeps its bits whatever the split.
    """
    pos, d, ratio, weights, M, n_max = _mass_weights(masses, R, n_max)
    u = _unit_cosines(pos[:, 2], d)
    s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    phi = np.arctan2(pos[:, 1], pos[:, 0])
    orders = np.arange(n_max + 1)
    C = np.zeros((n_max + 1, 2 * n_max + 1))

    def add_orders(bounds):
        lo, hi = bounds
        # row i of wc, ws and q holds order lo + i (q's to top = min(n, hi));
        # columns n_max - m take the sines of m = top down to max(lo, 1),
        # order 0 having none: row 0 only where lo > 0
        w_stop, stop = max(lo - 1, 0), None if lo else 0
        for cols, degrees in _legendre_blocks(u, s, n_max, ratio, hi, lo):
            ws = np.multiply(orders[lo:hi + 1, None], phi[cols])
            wc = np.cos(ws)
            wc *= weights[cols]
            np.sin(ws, out=ws)
            ws *= weights[cols]
            for n, q in degrees:
                top = n if n < hi else hi
                C[n, n_max + lo:n_max + top + 1] += np.vecdot(
                    wc[:top - lo + 1], q)
                C[n, n_max - top:n_max - w_stop] += np.vecdot(
                    ws[top - lo:stop:-1], q[top - lo:stop:-1])
            del q, wc, ws       # this block's buffers go before the next's
    density._parallel(add_orders, _order_ranges(n_max, len(u)))
    C *= 1.0 / (2 * orders[:, None] + 1)
    return SHECoefficients(R, G * M, n_max, C)


def pointmass_direction_sums(masses, R, n_max, d):
    """Direction sums b_n(d) = sum_m C_{n,m} Ybar_{n,m}(d), n = 0..n_max,
    of the masses' coefficient set at reference radius R, straight from
    the masses.

    By the addition theorem b_n = sum_i w_i (|x_i|/R)^n P_n(x_i_hat . d)
    with w_i = m_i / M, so the zonal slice of the Legendre kernel gives
    them in O(N n_max), where `coeffs_from_point_masses` followed by
    `direction_coefficient_table` costs O(N n_max^2).  d is a unit
    3-vector.  Agrees with that path to about 1e-15 of the degree's
    scale sum_i w_i (|x_i|/R)^n, which bounds |b_n|; where the masses'
    terms cancel, both paths carry roundoff of that scale.
    """
    pos, dist, ratio, weights, _, n_max = _mass_weights(masses, R, n_max)
    u = _unit_cosines(pos @ np.asarray(d, dtype=float), dist)
    b = np.zeros(n_max + 1)
    for cols, degrees in _legendre_blocks(u, None, n_max, ratio, m_max=0):
        w = weights[cols]
        for n, q in degrees:
            b[n] += q[0] @ w
        del q               # this block's buffers go before the next's
    b /= np.sqrt(2 * np.arange(n_max + 1) + 1)
    return b


def coeffs_from_sphere_quadrature(potential_fn, R_quad, R, n_max,
                                  brillouin_radius=None, oversample=0):
    """Recover coefficients from potential samples on a sphere.

    Orthogonality integrals over the sphere of radius R_quad using
    Gauss-Legendre nodes in cos(theta) (n_max+1 of them) and a uniform
    phi grid (2 n_max+2 points); exact for potentials band-limited to
    degree n_max at this resolution.  GM comes from the degree-0 integral.

    `oversample` adds that many extra degrees of quadrature resolution,
    which pushes the aliasing floor down for potentials that are not
    band-limited.  Note the error budget: the degree-n rescaling
    multiplies quadrature noise by (R_quad/R)^(n+1), so tight recovery of
    high degrees needs a quadrature sphere not much larger than the
    Brillouin sphere.
    """
    R_quad, R = float(R_quad), float(R)
    if not 0 < R_quad < math.inf:
        raise ValueError("R_quad must be positive and finite, got %r"
                         % R_quad)
    if brillouin_radius is not None and R_quad < brillouin_radius:
        warnings.warn("quadrature sphere lies inside the Brillouin sphere; "
                      "recovered coefficients are unreliable", stacklevel=2)
    n_max = _nonnegative("n_max", n_max)
    n_band = n_max + _nonnegative("oversample", oversample)
    n_theta = n_band + 1
    n_phi = 2 * n_band + 2
    x_gl, w_gl = np.polynomial.legendre.leggauss(n_theta)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - x_gl * x_gl))
    # sample the potential in one call on the full product grid, one
    # latitude after another
    pts = R_quad * np.stack(np.broadcast_arrays(
        sin_t[:, None] * np.cos(phis), sin_t[:, None] * np.sin(phis),
        x_gl[:, None]), axis=-1).reshape(-1, 3)
    V = np.asarray(potential_fn(pts), dtype=float).reshape(n_theta, n_phi)
    # phi transform, the Gauss-Legendre weights folded in:
    # wvc[m, j] = w_j * mean over phi of V(x_j, phi) cos(m phi)
    orders = np.arange(n_max + 1)
    mphi = np.outer(orders, phis)
    wvc = np.cos(mphi) @ V.T * (w_gl / n_phi)
    wvs = np.sin(mphi) @ V.T * (w_gl / n_phi)
    # theta transform: Gauss-Legendre sums against Pbar_{n,m}(x_gl)
    C = np.zeros((n_max + 1, 2 * n_max + 1))
    for cols, degrees in _legendre_blocks(x_gl, sin_t, n_max):
        for n, p in degrees:
            C[n, n_max:n_max + n + 1] += np.vecdot(wvc[:n + 1, cols], p)
            C[n, n_max - n:n_max] += np.vecdot(wvs[n:0:-1, cols], p[n:0:-1])
        del p               # this block's buffers go before the next's
    C *= 0.5
    GM = R_quad * C[0, n_max]
    if GM <= 0:
        raise ValueError("non-positive recovered GM; potential is not a "
                         "positive mass potential on this sphere")
    # rescale: integrals are (GM/R)(R/R_quad)^(n+1) C_{n,m}
    scale = (R / GM) * (R_quad / R) ** (orders + 1)
    C *= scale[:, None]
    return SHECoefficients(R, GM, n_max, C)


def direction_coefficient_table(c, thetas, phis):
    """Per-degree direction sums b_n = sum_m C_{n,m} Ybar_{n,m}(d).

    thetas/phis are arrays of equal length k; returns a (k, n_max+1)
    array.  This is the lumped coefficient sequence whose decay rate sets
    the convergence radius along each direction.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    n_max, C = c.n_max, c.coeffs
    orders = np.arange(n_max + 1)
    b = np.empty((len(thetas), n_max + 1))
    for cols, degrees in _legendre_blocks(np.cos(thetas), np.sin(thetas),
                                          n_max):
        mphi = np.outer(orders, phis[cols])
        cosm, sinm = np.cos(mphi), np.sin(mphi, out=mphi)
        work = np.empty_like(cosm)
        for n, p in degrees:
            t = np.multiply(p, cosm[:n + 1], out=work[:n + 1])
            bn = C[n, n_max:n_max + n + 1] @ t
            t = np.multiply(p[n:0:-1], sinm[n:0:-1], out=work[:n])
            b[cols, n] = bn + C[n, n_max - n:n_max] @ t
        del p, t, mphi, cosm, sinm, work    # before the next block's
    return b


def direction_term_sequence(c, d, r):
    """Series terms t_n = (GM/R) (R/r)^(n+1) b_n(d) for n = 0..n_max.

    r may be an array of radii: the result then has one row per radius,
    all from one direction table.
    """
    b = direction_coefficient_table(c, [d.theta], [d.phi])[0]
    return _series_terms(c.GM, c.ref_radius, b, r)


def _series_terms(GM, R, b, r):
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0):
        raise ValueError("radius must be positive")
    nvals = np.arange(len(b))
    return (GM / R) * (R / r[..., None]) ** (nvals + 1) * b


def series_value(GM, R, b, r):
    """The series (GM/R) sum_n (R/r)^(n+1) b_n over the given direction
    sums b, by compensated summation.

    An array of radii gives an array of values.
    """
    t = _series_terms(GM, R, b, r)
    if t.ndim == 1:
        return float(math.fsum(t))
    return np.array([math.fsum(row) for row in t])


def evaluate_partial_sum(c, N, r, d):
    """Truncated series value through degree N, compensated summation.

    An array of radii gives an array of values.
    """
    N = int(N)
    if not 0 <= N <= c.n_max:
        raise ValueError("N must lie in [0, n_max]")
    b = direction_coefficient_table(c, [d.theta], [d.phi])[0]
    return series_value(c.GM, c.ref_radius, b[:N + 1], r)


def partial_sum_sequence(c, d, r):
    """Cumulative partial sums S_0..S_{n_max} along one direction, and
    the terms."""
    t = direction_term_sequence(c, d, r)
    return np.cumsum(t), t
