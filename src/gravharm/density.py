"""Mass-density models: radial profiles, smoothed point masses, arrays,
sampled grids and the mu_1 (L^1) metric.

A smoothed point mass is a continuous, radially symmetric density
supported on a closed ball, vanishing on the ball's boundary.  Profiles
come in three flavours: a quadratic bump, a cosine bump, and a sampled
table with linear interpolation (the constant-interior taper is a
three-knot table).  All profile integrals used downstream are exact
closed forms, never numeric quadrature.  Each kind's formulas are
written once, as array functions that a single RadialProfile and a
whole SPMA both evaluate through.
"""

import contextvars
import math
import operator
import os
from functools import cached_property

import numpy as np
from dataclasses import dataclass

from .geometry import BallRegion, as_vec3

__all__ = [
    "RadialProfile", "quadratic_bump", "cosine_bump", "constant_taper",
    "table_profile", "PointMass", "PointMasses", "SmoothedPointMass",
    "SPMA", "ComponentError", "QUADRATIC", "COSINE", "TABLE", "KIND_NAMES",
    "GridDensity", "evaluate", "evaluate_on_grid", "total_mass",
    "lp_metric", "midpoint_nodes",
]

QUADRATIC, COSINE, TABLE = 0, 1, 2          # profile kind codes
KIND_NAMES = ("quadratic_bump", "cosine_bump", "table")
_BLOCK = 2**15     # entries per batched step: a few MB of temporaries per worker


# ---------------------------------------------------------------------------
# radial profiles: one array formula per kind.  `a` is the outer radius,
# `p` a bump's amplitude or a table's (knots, values) with the knots
# along the last axis; both broadcast against the radius.

def _pow(x, n):
    """x**n through C pow, as Python and numpy scalars compute it.

    numpy's ** on a float array may take a SIMD pow that differs in the
    last place.  Powers of a profile's own constants (a, pi / a, the
    knots, and s = a in the total mass) go through _pow, powers of
    evaluation radii through **: the split a single profile with scalar
    constants and array radii makes, so evaluating in batches changes
    no bits.
    """
    return np.float_power(x, n)


def _value(kind, a, p, s):
    """g(s), zero outside [0, a]; tables in np.interp's arithmetic."""
    if kind == QUADRATIC:
        g = p * (1.0 - (s / a) ** 2)
    elif kind == COSINE:
        g = 0.5 * p * (1.0 + np.cos(np.pi * s / a))
    else:
        (knots, values), x = p, np.clip(s, 0.0, a)
        g = values[..., -1]
        for i in range(knots.shape[-1] - 1):
            k0, k1 = knots[..., i], knots[..., i + 1]
            v0, v1 = values[..., i], values[..., i + 1]
            g = np.where((x >= k0) & (x < k1),
                         (v1 - v0) / (k1 - k0) * (x - k0) + v0, g)
    return np.where((s >= 0) & (s <= a), np.maximum(g, 0.0), 0.0)


def _mass_within(kind, a, p, s, pw=operator.pow):
    """M(s) = 4 pi * integral_0^s t^2 g(t) dt, exact; pw raises s."""
    s = np.clip(s, 0.0, a)
    if kind == QUADRATIC:
        val = p * (pw(s, 3) / 3.0 - pw(s, 5) / (5.0 * a * a))
    elif kind == COSINE:
        k = np.pi / a
        trig = (s * s / k) * np.sin(k * s) + (2 * s / _pow(k, 2)) * np.cos(k * s) \
            - (2 / _pow(k, 3)) * np.sin(k * s)
        # the t^2 cos(kt) antiderivative vanishes at 0
        val = 0.5 * p * (pw(s, 3) / 3.0 + trig)
    else:
        val = _table_moment(*p, s, power=2)
    return 4.0 * np.pi * val


def _tail_first_moment(kind, a, p, rho):
    """integral_rho^a t g(t) dt, exact."""
    rho = np.clip(rho, 0.0, a)
    if kind == TABLE:
        return _table_moment(*p, a, power=1) - _table_moment(*p, rho, power=1)
    if kind == QUADRATIC:
        F = lambda t, pw: p * (t * t / 2.0 - pw(t, 4) / (4.0 * a * a))
    else:
        k = np.pi / a
        F = lambda t, pw: 0.5 * p * (
            t * t / 2.0 + (t / k) * np.sin(k * t) + np.cos(k * t) / _pow(k, 2))
    return F(a, _pow) - F(rho, operator.pow)


def _table_moment(knots, values, s, power):
    """integral_0^s t^power g(t) dt for piecewise-linear tables."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros(np.broadcast(s, knots[..., 0]).shape)
    p = power
    for i in range(knots.shape[-1] - 1):
        k0, k1 = knots[..., i], knots[..., i + 1]
        v0, v1 = values[..., i], values[..., i + 1]
        slope = (v1 - v0) / (k1 - k0)
        alpha = v0 - slope * k0          # g(t) = alpha + slope * t on segment
        hi = np.clip(s, k0, k1)
        # hi is an array even for one profile, so ** on it is numpy's
        # array pow; the knots are constants
        out += (alpha * hi**(p + 1) / (p + 1) + slope * hi**(p + 2) / (p + 2)) \
            - (alpha * _pow(k0, p + 1) / (p + 1) + slope * _pow(k0, p + 2) / (p + 2))
    return out[0] if scalar else out


def _problems(kind, a, p, mass, check_boundary):
    """(failed, message) of each profile check, in the order they apply."""
    out = [(~np.greater(a, 0), "outer radius must be positive")]
    if kind == TABLE:
        knots, values = p
        out += [(~((knots[..., 0] == 0.0) & np.isclose(knots[..., -1], a)),
                 "table knots must span [0, outer_radius]"),
                (np.any(np.diff(knots) <= 0, axis=-1),
                 "table knots must be strictly increasing"),
                (np.any(values < 0, axis=-1), "profile values must be non-negative"),
                (check_boundary & (values[..., -1] != 0.0),
                 "profile must vanish at the outer radius")]
    else:
        out.append((~np.greater(p, 0), "amplitude must be positive"))
    return out + [(~np.greater(mass, 0), "profile must carry positive mass")]


class RadialProfile:
    """Radial rule g on [0, a], continuous with g(a) = 0.

    kind is one of "quadratic_bump", "cosine_bump", "table".  Closed-form
    kinds carry an amplitude; tables carry knots and values with linear
    interpolation.  Tables are also used for limit cases (e.g. a uniform
    ball) where the boundary-vanishing invariant is deliberately relaxed.
    """

    def __init__(self, kind, outer_radius, amplitude=None, knots=None,
                 values=None, check_boundary=True):
        if kind not in KIND_NAMES:
            raise ValueError("unknown profile kind %r" % kind)
        self.kind, self._code = kind, KIND_NAMES.index(kind)
        self.outer_radius = float(outer_radius)
        self.amplitude = self.knots = self.values = None
        if kind == "table":
            self.knots = np.asarray(knots, dtype=float)
            self.values = np.asarray(values, dtype=float)
            if self.knots.ndim != 1 or self.knots.shape != self.values.shape:
                raise ValueError("knots and values must be matching 1-D arrays")
            self._params = (self.knots, self.values)
        else:
            self.amplitude = self._params = float(amplitude)
        with np.errstate(all="ignore"):
            mass = self.total_mass()
        for failed, message in _problems(self._code, self.outer_radius,
                                         self._params, mass, check_boundary):
            if failed:
                raise ValueError(message)

    def _at(self, formula, s):
        return formula(self._code, self.outer_radius, self._params,
                       np.asarray(s, dtype=float))

    def __call__(self, s):
        return self._at(_value, s)

    def mass_within(self, s):
        """M(s) = 4 pi * integral_0^s t^2 g(t) dt, exact."""
        return self._at(_mass_within, s)

    def total_mass(self):
        a = self.outer_radius
        return float(_mass_within(self._code, a, self._params, a, _pow))

    def tail_first_moment(self, rho):
        """integral_rho^a t g(t) dt, exact."""
        return self._at(_tail_first_moment, rho)


def quadratic_bump(amplitude, outer_radius):
    return RadialProfile("quadratic_bump", outer_radius, amplitude=amplitude)


def cosine_bump(amplitude, outer_radius):
    return RadialProfile("cosine_bump", outer_radius, amplitude=amplitude)


def constant_taper(amplitude, outer_radius, taper_width):
    """Constant interior value with a linear taper to zero at the rim."""
    a, tau = float(outer_radius), float(taper_width)
    if not 0 < tau < a:
        raise ValueError("taper width must lie strictly inside (0, outer_radius)")
    return RadialProfile("table", a, knots=[0.0, a - tau, a],
                         values=[amplitude, amplitude, 0.0])


def table_profile(knots, values, check_boundary=True):
    knots = np.asarray(knots, dtype=float)
    return RadialProfile("table", knots[-1], knots=knots, values=values,
                         check_boundary=check_boundary)


# ---------------------------------------------------------------------------
# mass models

@dataclass(frozen=True)
class PointMass:
    position: np.ndarray
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec3(self.position))
        object.__setattr__(self, "mass", float(self.mass))
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise ValueError("point mass must be positive and finite")


@dataclass(frozen=True, eq=False)
class PointMasses:
    """Point-mass array: (N, 3) positions and (N,) masses, N >= 1; the
    first invalid mass raises ComponentError with its index."""

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or not len(m) or x.shape != (len(m), 3):
            raise ValueError("PointMasses needs N >= 1 masses: (N, 3) "
                             "positions and N masses, got %s and %s"
                             % (x.shape, m.shape))
        bad = ~(np.all(np.isfinite(x), axis=1) & (m > 0) & np.isfinite(m))
        if bad.any():
            raise ComponentError(np.argmax(bad), "point mass needs a finite "
                                 "position and a positive, finite mass")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "masses", m)

    def __len__(self):
        return len(self.masses)

    @classmethod
    def of(cls, masses):
        """`masses` itself if a PointMasses, else the array of a sequence
        of PointMass objects."""
        if isinstance(masses, cls):
            return masses
        masses = list(masses)
        return cls(np.reshape([m.position for m in masses], (-1, 3)),
                   [m.mass for m in masses])


@dataclass(frozen=True)
class SmoothedPointMass:
    """Radially symmetric density supported on a closed ball."""

    center: np.ndarray
    profile: RadialProfile

    def __post_init__(self):
        object.__setattr__(self, "center", as_vec3(self.center))

    @property
    def radius(self):
        return self.profile.outer_radius

    @property
    def mass(self):
        return self.profile.total_mass()


class ComponentError(ValueError):
    """A component of an SPMA or a point-mass array fails a check;
    `index` is its position."""

    def __init__(self, index, reason):
        super().__init__("component %d: %s" % (index, reason))
        self.index, self.reason = int(index), reason


def _arrays(rows):
    """SPMA.from_arrays arguments from (center, outer radius, kind code,
    params) rows, params being [amplitude] or the knots then as many
    values (the file format's order)."""
    centers, radii, kinds, params = zip(*rows) if rows else ((),) * 4
    tables = {}
    for i, (code, q) in enumerate(zip(kinds, params)):
        if code == TABLE:
            tables.setdefault(len(q) // 2, []).append(i)
    groups = []
    for k, idx in tables.items():
        q = np.array([params[i] for i in idx], dtype=float)
        groups.append((idx, q[:, :k], q[:, k:]))
    amplitudes = [np.nan if code == TABLE else q[0]
                  for code, q in zip(kinds, params)]
    return centers, radii, kinds, amplitudes, groups


def _profile_rows(components):
    """_arrays rows of SmoothedPointMass objects."""
    return [(c.center, c.radius, c.profile._code,
             [c.profile.amplitude] if c.profile.knots is None
             else np.concatenate([c.profile.knots, c.profile.values]))
            for c in components]


class SPMA:
    """Finite, ordered sum of smoothed point masses, stored as arrays.

    `centers` (N, 3), `radii` and `masses` (N,) and a kind code per
    component in `kinds`; the profile parameters sit in groups, one
    amplitude array per bump kind and one (knots, values) pair of (M, K)
    arrays per table knot count K, and each group evaluates through one
    array formula (`profile`, `mass_within`, `tail_first_moment`).
    Built from SmoothedPointMass objects or from arrays (`from_arrays`);
    `components` builds the objects when first read.
    """

    def __init__(self, components):
        components = tuple(components)
        self._store(*_arrays(_profile_rows(components)), check_boundary=False)
        self.__dict__["components"] = components

    @classmethod
    def from_arrays(cls, centers, radii, kinds, amplitudes, tables=(),
                    check_boundary=True):
        """SPMA from per-component arrays.  `amplitudes` is read at the
        bump components; `tables` is a list of (indices, knots, values)
        groups, knots and values (M, K), covering the table components.
        Every RadialProfile check runs on every component, and the first
        failure raises ComponentError."""
        spma = cls.__new__(cls)
        spma._store(centers, radii, kinds, amplitudes, tables, check_boundary)
        return spma

    def _store(self, centers, radii, kinds, amplitudes, tables,
               check_boundary):
        self.radii = np.asarray(radii, dtype=float)
        n = len(self.radii)
        if not n:
            raise ValueError("SPMA must have at least one component")
        self.centers = np.asarray(centers, dtype=float).reshape(n, 3)
        self.kinds = np.asarray(kinds, dtype=np.int8).reshape(n)
        amplitudes = np.asarray(amplitudes, dtype=float)
        self._groups = tuple(
            [(code, i, amplitudes[i]) for code in (QUADRATIC, COSINE)
             for i in [np.flatnonzero(self.kinds == code)] if i.size]
            + [(TABLE, np.asarray(i, dtype=np.intp), (np.asarray(k, dtype=float),
                                                     np.asarray(v, dtype=float)))
               for i, k, v in tables if len(i)])
        # each component's group and row there, for gathering parameters
        self._group = np.full(n, -1, dtype=np.intp)
        self._row = np.zeros(n, dtype=np.intp)
        for g, (_, idx, _) in enumerate(self._groups):
            self._group[idx], self._row[idx] = g, np.arange(len(idx))
        if np.any(self._group < 0) or sum(len(g[1]) for g in self._groups) != n:
            raise ValueError("each component needs a known kind and, if a "
                             "table, exactly one table row")
        with np.errstate(all="ignore"):
            self.masses = self._by_kind(lambda *args: _mass_within(*args, _pow),
                                        np.arange(n), self.radii)
        bad = [(idx[np.argmax(f)], message) for code, idx, p in self._groups
               for f, message in _problems(code, self.radii[idx], p,
                                           self.masses[idx], check_boundary)
               if np.any(f)]
        f = ~np.all(np.isfinite(self.centers), axis=1)
        if f.any():
            bad.append((np.argmax(f), "vector components must be finite"))
        if bad:
            raise ComponentError(*min(bad, key=lambda b: b[0]))

    def _by_kind(self, formula, index, s):
        """formula(kind, a, p, s) at the entries (component index[e],
        radius s[e]), one call per parameter group."""
        index, s = np.asarray(index, dtype=np.intp), np.asarray(s, dtype=float)
        out = np.empty(len(index))
        one = len(self._groups) == 1        # every entry is in that group
        group = None if one else self._group[index]
        for g, (code, _, p) in enumerate(self._groups):
            sel = slice(None) if one else np.flatnonzero(group == g)
            c = index[sel]
            if c.size == 0:
                continue
            if c[0] == c[-1] and np.all(c == c[0]):
                c = c[:1]           # one component: its parameters broadcast
            rows = self._row[c]
            out[sel] = formula(code, self.radii[c], (p[0][rows], p[1][rows])
                               if code == TABLE else p[rows], s[sel])
        return out

    def profile(self, index, s):
        """g(s) of component index[e] at radius s[e]."""
        return self._by_kind(_value, index, s)

    def mass_within(self, index, s):
        """M(s) of component index[e] at radius s[e]."""
        return self._by_kind(_mass_within, index, s)

    def tail_first_moment(self, index, rho):
        """integral_rho^a t g(t) dt of component index[e] at rho[e]."""
        return self._by_kind(_tail_first_moment, index, rho)

    def _rows(self):
        """(center, outer radius, kind code, params) per component as
        Python lists and numbers, the inverse of _arrays.  The lists are
        made a block of components at a time, so they stay small."""
        params = [np.hstack(p) if code == TABLE else p[:, None]
                  for code, _, p in self._groups]
        for b in _blocks(len(self), 32):
            for c, a, code, g, r in zip(
                    self.centers[b].tolist(), self.radii[b].tolist(),
                    self.kinds[b].tolist(), self._group[b].tolist(),
                    self._row[b].tolist()):
                yield c, a, code, params[g][r].tolist()

    @cached_property
    def components(self):
        """The components as SmoothedPointMass objects, built on first read
        (a bump reads q[0] as its amplitude, a table the halves of q)."""
        return tuple(SmoothedPointMass(c, RadialProfile(
            KIND_NAMES[code], a, q[0], q[:len(q) // 2], q[len(q) // 2:],
            check_boundary=False)) for c, a, code, q in self._rows())

    def __len__(self):
        return len(self.radii)

    def support_region(self):
        return BallRegion(self.centers, self.radii)

    def as_point_masses(self):
        """The equivalent point masses, sharing `centers` and `masses`."""
        return PointMasses(self.centers, self.masses)

    def bounding_box(self):
        r = self.radii[:, None]
        return (self.centers - r).min(axis=0), (self.centers + r).max(axis=0)


class GridDensity:
    """Non-negative density sampled on a regular grid, trilinear in between.

    Values live at nodes origin + (i, j, k) * spacing; the density is zero
    outside the grid box.  The positive support must be 6-connected.
    """

    def __init__(self, origin, spacing, values):
        self.origin = as_vec3(origin)
        self.spacing = float(spacing)
        if not self.spacing > 0:
            raise ValueError("grid spacing must be positive")
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError("values must be a 3-D array")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("grid values must be finite and non-negative")
        support = self.values > 0
        if not support.any():
            raise ValueError("grid support is empty")
        from scipy import ndimage
        from scipy.interpolate import RegularGridInterpolator
        _, ncomp = ndimage.label(support)
        if ncomp != 1:
            raise ValueError("grid support must be 6-connected (found %d components)" % ncomp)
        axes = [self.origin[d] + self.spacing * np.arange(self.values.shape[d])
                for d in range(3)]
        self._interp = RegularGridInterpolator(
            axes, self.values, method="linear", bounds_error=False, fill_value=0.0)

    @property
    def shape(self):
        return self.values.shape

    def node_coordinates(self):
        nx, ny, nz = self.shape
        ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                                 indexing="ij")
        return self.origin + self.spacing * np.stack(
            [ii, jj, kk], axis=-1).reshape(-1, 3)

    def bounding_box(self):
        hi = self.origin + self.spacing * (np.array(self.shape) - 1)
        return self.origin.copy(), hi

    def save(self, path):
        nx, ny, nz = self.shape
        with open(path, "w") as fh:
            fh.write("%d %d %d %.17g %.17g %.17g %.17g\n"
                     % (nx, ny, nz, self.spacing, *self.origin))
            flat = np.ravel(self.values, order="F")  # x fastest
            for i in range(0, flat.size, 8):
                fh.write(" ".join("%.17g" % v for v in flat[i:i + 8]) + "\n")

    @classmethod
    def load(cls, path):
        """Read a grid file; a malformed header or value raises
        ValueError naming path:line, a bad grid as a whole naming path."""
        with open(path) as fh:
            lineno, chunks = 1, [np.empty(0)]
            try:
                header = fh.readline().split()
                if len(header) != 7:
                    raise ValueError("bad grid header (expected "
                                     "'nx ny nz h ox oy oz')")
                nx, ny, nz = (int(v) for v in header[:3])
                h = float(header[3])
                origin = [float(v) for v in header[4:]]
                if min(nx, ny, nz) < 1:
                    raise ValueError("grid dimensions must be at least 1")
                if not (math.isfinite(h) and h > 0):
                    raise ValueError("grid spacing must be finite and positive")
                if not all(map(math.isfinite, origin)):
                    raise ValueError("grid origin must be finite")
                for lineno, line in enumerate(fh, 2):
                    chunks.append(np.array(line.split(), dtype=float))
            except ValueError as exc:
                raise ValueError("%s:%d: %s" % (path, lineno, exc))
        flat = np.concatenate(chunks)
        bad = ~(flat >= 0) | np.isinf(flat)
        if bad.any():
            # chunk j holds line j + 1; chunk 0 is empty
            ends = np.cumsum([len(c) for c in chunks])
            lineno = 1 + np.searchsorted(ends, np.argmax(bad), side="right")
            raise ValueError("%s:%d: grid values must be finite and "
                             "non-negative" % (path, lineno))
        if flat.size != nx * ny * nz:
            raise ValueError("%s: grid file has %d values, expected %d"
                             % (path, flat.size, nx * ny * nz))
        try:
            return cls(origin, h, flat.reshape((nx, ny, nz), order="F"))
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# evaluation

try:
    _WORKERS = len(os.sched_getaffinity(0))    # the cores this process may use
except AttributeError:                          # no affinity call off Linux
    _WORKERS = os.cpu_count() or 1


def _parallel(fn, items):
    """fn(item) for every item of a range or list, on every core.

    The calling thread and one helper thread per further core take items
    from one shared iterator (a range's or list's; two threads calling
    next on one generator raise), so fn must write its results where no
    other item writes.  The helpers belong to an executor made for this
    call, so no thread outlives it, and each runs in a copy of the
    caller's context, so the caller's np.errstate holds there too.  With
    one core or fewer than two items fn runs inline and no thread
    starts.  An exception from fn is raised once every helper has
    stopped.

    fn also runs on the helper threads, where bench/tracer.py's one span
    stack cannot follow it: it must call no function that the traced
    benchmark wraps (bench/layers.py), only kernels such as _grid_slab,
    _distance_blocks and SPMA.profile / mass_within / tail_first_moment.
    """
    helpers = min(_WORKERS, len(items)) - 1
    if helpers < 1:
        for item in items:
            fn(item)
        return
    from concurrent.futures import ThreadPoolExecutor
    shared = iter(items)

    def drain():
        try:
            for item in shared:
                fn(item)
        except BaseException:
            for _ in shared:        # leave the other threads no item
                pass
            raise

    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(contextvars.copy_context().run, drain)
                   for _ in range(helpers)]
        drain()
    for f in futures:
        f.result()


def _block_rows(width):
    """Rows of `width` entries per _blocks block."""
    return max(1, _BLOCK // max(width, 1))


def _blocks(total, width=1):
    """Consecutive indices into range(total), about _BLOCK / width at a
    time."""
    step = _block_rows(width)
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total))


def _distance_blocks(x, positions):
    """(p, d) for each point block p of `_blocks`: d[i, j] is the distance
    from x[p[i]] to positions[j].  Callers reach it through
    `_each_distance_block`.

    Each d is summed coordinate by coordinate, (dx^2 + dy^2) + dz^2, the
    order np.linalg.norm adds a length-3 axis in, so it equals
    np.linalg.norm(x[p, None] - positions, axis=2) bit for bit.  d lives
    in a (b, N) buffer that the next block overwrites; callers may
    overwrite it too."""
    pos = np.ascontiguousarray(positions.T)       # (3, N): one row per axis
    d = t = None
    for p in _blocks(len(x), pos.shape[1]):
        if d is None:              # the first block is the largest
            d, t = np.empty((2, len(p), pos.shape[1]))
        db, tb = d[:len(p)], t[:len(p)]
        xp = x[p]
        np.subtract(xp[:, 0, None], pos[0], out=db)
        np.square(db, out=db)
        for k in (1, 2):
            np.subtract(xp[:, k, None], pos[k], out=tb)
            np.square(tb, out=tb)
            db += tb
        np.sqrt(db, out=db)
        yield p, db


def _each_distance_block(x, positions, body):
    """body(p, d) for each (p, d) of _distance_blocks(x, positions), on
    every core: the points are cut into one contiguous run of whole
    blocks per core, each run with its own buffers, and p indexes x.
    Each block is the one the serial loop makes, so a body whose rows
    depend only on their own point gives the same bits."""
    step = _block_rows(len(positions))
    blocks = -(-len(x) // step)
    runs = max(1, min(_WORKERS, blocks))
    cuts = [min(len(x), step * (blocks * k // runs)) for k in range(runs + 1)]

    def run(k):
        for p, d in _distance_blocks(x[cuts[k]:cuts[k + 1]], positions):
            body(p + cuts[k], d)

    _parallel(run, range(runs))


def evaluate(density, x):
    """Density value at one point or an (n, 3) batch of points.

    SPMA components superpose, each point taking its terms in component
    order; grid densities interpolate trilinearly and vanish outside
    their box.  For dense regular grids of points prefer
    :func:`evaluate_on_grid`.
    """
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if isinstance(density, SPMA):
        out = np.zeros(len(pts))

        def body(p, d):
            i, c = np.nonzero(d <= density.radii)
            np.add.at(out, p[i], density.profile(c, d[i, c]))
        _each_distance_block(pts, density.centers, body)
    elif isinstance(density, GridDensity):
        out = density._interp(pts)
    else:
        raise TypeError("cannot evaluate %r" % type(density))
    return float(out[0]) if scalar else out


def evaluate_on_grid(density, origin, spacing, shape):
    """Density sampled on a regular grid, component-scatter for SPMAs.

    origin is the first node, spacing a scalar or 3-vector, shape (nx,ny,nz).
    Returns an array of that shape.  An SPMA adds each component's
    profile at the nodes of its support ball, a block of stencil nodes
    at a time, and every node takes its terms in component order.
    """
    return _grid_slab(density, origin, spacing, shape, 0, int(shape[0]))


def _row_blocks(end, width):
    """Consecutive blocks of the rows 0..end[-1]-1, where component c owns
    the rows below end[c], each width[c] long: (rows, their components,
    the block's longest row) per block.  A block holds rows times its
    longest row <= _BLOCK entries, or a single row; rows of one width
    fall into blocks of _BLOCK // width."""
    total, s = int(end[-1]), 0
    while s < total:
        # the rows a block from s holds at most, at the width of row s,
        # then the cut where they times their running longest row pass
        # _BLOCK
        most = max(1, _BLOCK // width[np.searchsorted(end, s, side="right")])
        row = np.arange(s, min(s + most, total))
        c = np.searchsorted(end, row, side="right")
        longest = np.maximum.accumulate(width[c])
        n = max(1, int(np.searchsorted(longest * np.arange(1, len(row) + 1),
                                       _BLOCK, side="right")))
        yield row[:n], c[:n], int(longest[n - 1])
        s += n


def _grid_slab(density, origin, spacing, shape, start, stop):
    """Layers start..stop-1 along x of evaluate_on_grid's grid, at the
    same node coordinates."""
    origin = as_vec3(origin)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (3,))
    nx, ny, nz = (int(n) for n in shape)
    if not isinstance(density, SPMA):
        # grid densities: direct evaluation
        ax = [origin[d] + spacing[d] * np.arange(n) for d, n in enumerate((nx, ny, nz))]
        ax[0] = ax[0][start:stop]
        pts = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
        return evaluate(density, pts).reshape(stop - start, ny, nz)
    out = np.zeros((stop - start) * ny * nz)
    centers, radii = density.centers, density.radii
    lo = np.maximum(np.ceil((centers - radii[:, None] - origin) / spacing)
                    .astype(int), (start, 0, 0))
    hi = np.minimum(np.floor((centers + radii[:, None] - origin) / spacing)
                    .astype(int), (stop - 1, ny - 1, nz - 1))
    ext = np.maximum(hi - lo + 1, 0)            # each component's node box
    # the boxes as rows along z, one per (component, x, y)
    rows = ext[:, 0] * ext[:, 1] * (ext[:, 2] > 0)
    end = np.cumsum(rows)
    for row, c, width in _row_blocks(end, ext[:, 2]):
        k = np.arange(width)
        q = row - end[c] + rows[c]
        i, j = lo[c, 0] + q // ext[c, 1], lo[c, 1] + q % ext[c, 1]
        dx = origin[0] + spacing[0] * i - centers[c, 0]
        dy = origin[1] + spacing[1] * j - centers[c, 1]
        kz = lo[c, 2][:, None] + k
        dz = origin[2] + spacing[2] * kz - centers[c, 2][:, None]
        dist = np.sqrt((dx * dx + dy * dy)[:, None] + dz * dz)
        inside = (dist <= radii[c][:, None]) & (k < ext[c, 2][:, None])
        flat = (((i - start) * ny + j) * nz)[:, None] + kz
        np.add.at(out, flat[inside], density.profile(
            np.repeat(c, inside.sum(axis=1)), dist[inside]))
    return out.reshape(stop - start, ny, nz)


def total_mass(density):
    """Total mass, exact closed forms for profiles, node sum for grids."""
    if isinstance(density, SPMA):
        return float(math.fsum(density.masses))
    if isinstance(density, GridDensity):
        return float(math.fsum(np.ravel(density.values, order="F"))
                     * density.spacing**3)
    raise TypeError("cannot integrate %r" % type(density))


# ---------------------------------------------------------------------------
# metrics

def _count(name, value):
    """int(value), which must be at least 1; the error names `name`."""
    if int(value) < 1:
        raise ValueError("%s must be at least 1, got %r" % (name, value))
    return int(value)


def midpoint_nodes(lo, hi, resolution):
    """Midpoint tensor grid over a box: per-axis coordinates + cell volume."""
    lo, hi = as_vec3(lo), as_vec3(hi)
    n = int(resolution)
    widths = (hi - lo) / n
    axes = [lo[d] + widths[d] * (np.arange(n) + 0.5) for d in range(3)]
    return axes, float(np.prod(widths)), widths


def lp_metric(f, g, resolution=64):
    """mu_1(f, g), the L^1 distance between two densities, by midpoint
    quadrature over the union of their bounding boxes."""
    resolution = _count("resolution", resolution)
    (lo_f, hi_f), (lo_g, hi_g) = f.bounding_box(), g.bounding_box()
    axes, cellvol, widths = midpoint_nodes(np.minimum(lo_f, lo_g),
                                           np.maximum(hi_f, hi_g), resolution)
    origin = np.array([a[0] for a in axes])
    shape = (resolution,) * 3
    diff = np.abs(evaluate_on_grid(f, origin, widths, shape)
                  - evaluate_on_grid(g, origin, widths, shape))
    return float(math.fsum(np.ravel(diff, order="F")) * cellvol)


# ---------------------------------------------------------------------------
# SPMA file format: one component per line "cx cy cz a kind param...",
# a table's params being its knots then as many values; # comments

def save_spma(spma, path):
    formats = {}        # a line's format, by its parameter count
    with open(path, "w") as fh:
        fh.writelines(formats.setdefault(len(q), "%.17g %.17g %.17g %.17g %s"
                                         + " %.17g" * len(q) + "\n")
                      % (*c, a, KIND_NAMES[code], *q)
                      for c, a, code, q in spma._rows())


def load_spma(path):
    """Read an SPMA file; a bad line raises ValueError naming it."""
    rows, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.split()
            if not tok or tok[0].startswith("#"):
                continue
            try:
                if tok[4] not in KIND_NAMES:
                    raise ValueError("unknown profile kind %r" % tok[4])
                code = KIND_NAMES.index(tok[4])
                q = [float(v) for v in tok[5:]]
                if code != TABLE and len(q) != 1:
                    raise ValueError("a %s takes one amplitude" % tok[4])
                if code == TABLE and (len(q) % 2 or not q):
                    raise ValueError("a table takes knots, then as many values")
                rows.append(([float(v) for v in tok[:3]], float(tok[3]), code, q))
            except (IndexError, ValueError) as exc:
                raise ValueError("bad SPMA file line %d: %s" % (lineno, exc))
            linenos.append(lineno)
    try:
        return SPMA.from_arrays(*_arrays(rows), check_boundary=False)
    except ComponentError as exc:
        raise ValueError("bad SPMA file line %d: %s"
                         % (linenos[exc.index], exc.reason))
