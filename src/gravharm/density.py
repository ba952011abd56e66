"""Mass-density models: radial profiles, smoothed point masses, arrays,
sampled grids, weighted L^p metrics and compact-set statistics.

A smoothed point mass is a continuous, radially symmetric density
supported on a closed ball, vanishing on the ball's boundary.  Profiles
come in three flavours: a quadratic bump, a cosine bump, and a sampled
table with linear interpolation (the constant-interior taper is a
three-knot table).  All profile integrals used downstream are exact
closed forms, never numeric quadrature.  Each kind's formulas are
written once, as array functions that a single RadialProfile and a
whole SPMA both evaluate through.
"""

import math
import operator
from functools import cached_property

import numpy as np
from dataclasses import dataclass, field
from scipy import ndimage
from scipy.interpolate import RegularGridInterpolator

from .geometry import Ball, BallRegion, as_vec3

__all__ = [
    "RadialProfile", "quadratic_bump", "cosine_bump", "constant_taper",
    "table_profile", "PointMass", "SmoothedPointMass", "SPMA",
    "ComponentError", "QUADRATIC", "COSINE", "TABLE", "KIND_NAMES",
    "GridDensity", "WeightFn", "evaluate", "evaluate_on_grid",
    "total_mass", "lp_metric", "var_over", "mean_over",
    "density_bounding_box", "midpoint_nodes",
]

QUADRATIC, COSINE, TABLE = 0, 1, 2          # profile kind codes
KIND_NAMES = ("quadratic_bump", "cosine_bump", "table")
_BLOCK = 2**15     # entries per batched step: temporaries of a few MB


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

    def support_ball(self):
        return Ball(self.center, self.radius)

    def as_point_mass(self):
        return PointMass(self.center, self.mass)


class ComponentError(ValueError):
    """An SPMA component fails a check; `index` is its position."""

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


def _profile_rows(centers, profiles):
    return [(c, p.outer_radius, p._code, [p.amplitude] if p.knots is None
             else np.concatenate([p.knots, p.values]))
            for c, p in zip(centers, profiles)]


class SPMA:
    """Finite, ordered sum of smoothed point masses, stored as arrays.

    `centers` (N, 3), `radii` and `masses` (N,) and a kind code per
    component in `kinds`; the profile parameters sit in groups, one
    amplitude array per bump kind and one (knots, values) pair of (M, K)
    arrays per table knot count K, and each group evaluates through one
    array formula (`profile`, `mass_within`, `tail_first_moment`).
    Built from SmoothedPointMass objects, from arrays (`from_arrays`) or
    from RadialProfiles (`from_profiles`); `components` builds the
    objects when first read.
    """

    def __init__(self, components):
        components = tuple(components)
        self._store(*_arrays(_profile_rows([c.center for c in components],
                                           [c.profile for c in components])),
                    check_boundary=False)
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

    @classmethod
    def from_profiles(cls, centers, profiles):
        """SPMA of RadialProfiles placed at `centers`."""
        return cls.from_arrays(*_arrays(_profile_rows(centers, profiles)),
                               check_boundary=False)

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
        group = self._group[index]
        for g, (code, _, p) in enumerate(self._groups):
            sel = np.flatnonzero(group == g)
            if sel.size == 0:
                continue
            c = index[sel]
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
        """(center, outer radius, kind code, params) per component, the
        inverse of _arrays."""
        params = [None] * len(self)
        for code, idx, p in self._groups:
            for i, q in zip(idx, np.hstack(p) if code == TABLE else p[:, None]):
                params[i] = q
        return zip(self.centers, self.radii, self.kinds, params)

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
        return [PointMass(c, m) for c, m in zip(self.centers, self.masses)]

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
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 7:
                raise ValueError("bad grid header (expected 'nx ny nz h ox oy oz')")
            nx, ny, nz = (int(v) for v in header[:3])
            h = float(header[3])
            origin = [float(v) for v in header[4:]]
            flat = np.array(fh.read().split(), dtype=float)
        if flat.size != nx * ny * nz:
            raise ValueError("grid file has %d values, expected %d"
                             % (flat.size, nx * ny * nz))
        values = flat.reshape((nx, ny, nz), order="F")
        return cls(origin, h, values)


@dataclass(frozen=True)
class WeightFn:
    """Strictly positive weight, one of a few named closed forms."""

    kind: str = "constant"
    params: tuple = (1.0,)

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "constant":
            return np.full(len(pts), float(self.params[0]))
        r = np.linalg.norm(pts, axis=1)
        if self.kind == "gaussian":
            sigma, = self.params
            return np.exp(-0.5 * (r / sigma) ** 2)
        if self.kind == "radial_poly":
            w = np.polyval(self.params, r)
            if np.any(w <= 0):
                raise ValueError("radial polynomial weight must stay positive")
            return w
        raise ValueError("unknown weight kind %r" % self.kind)


UNIT_WEIGHT = WeightFn()


# ---------------------------------------------------------------------------
# evaluation

def _is_zero(density):
    return isinstance(density, (int, float)) and density == 0


def _blocks(total, width=1):
    """Consecutive indices into range(total), about _BLOCK / width at a
    time."""
    step = max(1, _BLOCK // max(width, 1))
    for start in range(0, total, step):
        yield np.arange(start, min(start + step, total))


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
    if _is_zero(density):
        out = np.zeros(len(pts))
    elif isinstance(density, SmoothedPointMass):
        out = density.profile(np.linalg.norm(pts - density.center, axis=1))
    elif isinstance(density, SPMA):
        out = np.zeros(len(pts))
        for pair in _blocks(len(density) * len(pts)):
            c, p = np.divmod(pair, len(pts))
            d = np.linalg.norm(pts[p] - density.centers[c], axis=1)
            near = d <= density.radii[c]
            np.add.at(out, p[near], density.profile(c[near], d[near]))
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


def _grid_slab(density, origin, spacing, shape, start, stop):
    """Layers start..stop-1 along x of evaluate_on_grid's grid, at the
    same node coordinates."""
    origin = as_vec3(origin)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (3,))
    nx, ny, nz = (int(n) for n in shape)
    if _is_zero(density):
        return np.zeros((stop - start, ny, nz))
    if not isinstance(density, SPMA):
        # grid densities and single SPMs: direct evaluation
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
    # the boxes as rows along z, one per (component, x, y), padded to the
    # longest row
    rows = ext[:, 0] * ext[:, 1] * (ext[:, 2] > 0)
    end = np.cumsum(rows)
    k = np.arange(ext[:, 2].max())
    for row in _blocks(int(end[-1]), len(k)):
        c = np.searchsorted(end, row, side="right")
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
    if _is_zero(density):
        return 0.0
    if isinstance(density, SmoothedPointMass):
        return density.mass
    if isinstance(density, SPMA):
        return float(math.fsum(density.masses))
    if isinstance(density, GridDensity):
        return float(math.fsum(np.ravel(density.values, order="F"))
                     * density.spacing**3)
    raise TypeError("cannot integrate %r" % type(density))


# ---------------------------------------------------------------------------
# metrics

def density_bounding_box(density):
    if _is_zero(density):
        return None
    if isinstance(density, SmoothedPointMass):
        c, r = density.center, density.radius
        return c - r, c + r
    return density.bounding_box()


def midpoint_nodes(lo, hi, resolution):
    """Midpoint tensor grid over a box: per-axis coordinates + cell volume."""
    lo, hi = as_vec3(lo), as_vec3(hi)
    n = int(resolution)
    widths = (hi - lo) / n
    axes = [lo[d] + widths[d] * (np.arange(n) + 0.5) for d in range(3)]
    return axes, float(np.prod(widths)), widths


def _union_box(f, g):
    boxes = [b for b in (density_bounding_box(f), density_bounding_box(g))
             if b is not None]
    if not boxes:
        raise ValueError("both densities are identically zero")
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    return lo, hi


def lp_metric(f, g, p=1, w=None, trunc_N=None, resolution=64):
    """Weighted L^p distance between two densities by midpoint quadrature.

    The quadrature box is the union of the two bounding boxes, intersected
    with the origin-centered ball of radius trunc_N when given.  p = inf
    returns the unweighted sup over quadrature nodes, matching the sup-norm
    convention.
    """
    if not (p == np.inf or p >= 1):
        raise ValueError("p must lie in [1, inf]")
    lo, hi = _union_box(f, g)
    if trunc_N is not None:
        N = float(trunc_N)
        lo, hi = np.maximum(lo, -N), np.minimum(hi, N)
        if np.any(hi <= lo):
            return 0.0
    axes, cellvol, widths = midpoint_nodes(lo, hi, resolution)
    origin = np.array([a[0] for a in axes])
    shape = (resolution,) * 3
    diff = np.abs(evaluate_on_grid(f, origin, widths, shape)
                  - evaluate_on_grid(g, origin, widths, shape))
    if trunc_N is not None:
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        diff = np.where(xx**2 + yy**2 + zz**2 <= trunc_N**2, diff, 0.0)
    if p == np.inf:
        return float(diff.max())
    flat = np.ravel(diff, order="F")
    if w is not None and not (w.kind == "constant" and w.params[0] == 1.0):
        pts = np.stack([a.ravel(order="F") for a in
                        np.meshgrid(*axes, indexing="ij")], axis=-1)
        wv = w(pts)
    else:
        wv = None
    if p == 1:
        terms = flat if wv is None else flat * wv
    else:
        terms = flat**p if wv is None else flat**p * wv
    total = math.fsum(terms) * cellvol
    return float(total if p == 1 else total ** (1.0 / p))


def _ball_nodes(K, resolution):
    lo, hi = K.center - K.radius, K.center + K.radius
    axes, cellvol, widths = midpoint_nodes(lo, hi, resolution)
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=-1)
    inside = np.linalg.norm(pts - K.center, axis=1) <= K.radius
    return pts[inside]


def var_over(f, K, resolution=32):
    """Oscillation (max - min) of f over quadrature nodes in the ball K."""
    vals = evaluate(f, _ball_nodes(K, resolution))
    return float(vals.max() - vals.min())


def mean_over(f, K, resolution=32):
    """Node average of f over the ball K (equal-volume cells)."""
    vals = evaluate(f, _ball_nodes(K, resolution))
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# SPMA file format: one component per line "cx cy cz a kind param...",
# a table's params being its knots then as many values; # comments

def save_spma(spma, path):
    with open(path, "w") as fh:
        for c, a, code, q in spma._rows():
            fh.write(" ".join(["%.17g" % v for v in (*c, a)] + [KIND_NAMES[code]]
                              + ["%.17g" % v for v in q]) + "\n")


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
