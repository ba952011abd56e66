"""Constructive machinery: greedy spherical fillings of a grid density,
smoothed-array approximation, and the two-ball snowman family.

The filling is deterministic: repeatedly place the largest admissible
ball centered on a grid node (radius quantized to h/2), then finish with
one batched pass of sub-step balls so the measured residual mass drops
below its budget.  The covering is a blanket of radius-2h balls, one per
support node; their amplitudes are fitted so the summed background
tracks a fixed fraction of f across the whole support, and each filling
ball then carries the local mean of what the background leaves over.
Fillings and coverings are `BallRegion`s, center and radius arrays.
The filling, the fit and every check run on the input grid's own nodes.
"""

import math

import numpy as np
from dataclasses import dataclass

from .geometry import (BallRegion, brillouin_radius,
                       general_position_perturb, hausdorff_distance,
                       pointmass_brillouin_radius)
from .density import (QUADRATIC, SPMA, TABLE, SmoothedPointMass, _pow,
                      evaluate_on_grid, lp_metric, quadratic_bump)
from .convergence import pointmass_rc

__all__ = ["FillingParams", "SnowmanParams", "FillingBudgetError",
           "ConstructionError", "SphericalFilling", "spherical_filling",
           "spma_approximate", "ApproximationResult", "build_snowman",
           "snowman_waist_radius", "snowman_clears",
           "snowman_descends_to_topography", "SnowmanReport"]

COVER_RADIUS_STEPS = 2     # covering-ball radius in grid steps
BACKGROUND_FRACTION = 0.95  # share of f the covering background carries
TAPER_FRACTION = 0.02      # filling-taper rim width over its radius
MAX_BALLS = 200_000        # filling balls before the budget counts as lost
MIN_BALL_STEPS = 1e-3      # smallest sub-step ball radius in grid steps
FIT_ITERATIONS = 80        # projected-gradient steps of the background fit


class FillingBudgetError(RuntimeError):
    """A filling budget (residual mass / oscillation) is unachievable."""


class ConstructionError(RuntimeError):
    """A constructed array failed one of its required properties."""


@dataclass(frozen=True)
class FillingParams:
    """The two budgets of the approximation: delta for mu_1(f, lambda)
    and eps for the set and boundary distances and the Brillouin radii.
    The filling runs on f's own grid nodes."""

    delta: float
    eps: float

    def __post_init__(self):
        for name, value in (("delta", self.delta), ("eps", self.eps)):
            if not 0 < value < np.inf:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, value))


@dataclass
class SphericalFilling:
    """Result of the greedy filling on f's grid: disjoint balls, a cover of
    one ball per support node (`mask`'s, in `np.argwhere` order), f at
    those nodes, their KD-tree over 2 ijk (ijk the lattice index: half
    steps), the nodes in filling ball j as at[starts[j]:starts[j + 1]],
    in a single-point query's order, and f's oscillation over them.  A
    greedy ball of q half steps on node c holds node k iff
    4 |ijk[k] - ijk[c]|^2 <= q^2, recorded from the one tree query that
    placed it; a ball placed once every room is below h has q = 1 and,
    like a sub-step ball, holds c alone.  The residual mass is
    measured once, from the nodes left without a ball, and is exactly
    0.0 when every node has one."""

    filling: BallRegion
    covering: BallRegion
    residual_mass: float
    a1_bound: float
    a2_bound: float
    mask: np.ndarray
    fvals: np.ndarray
    tree: object
    at: np.ndarray
    starts: np.ndarray
    ball_var: np.ndarray

    @property
    def max_ball_var(self):
        return float(np.max(self.ball_var, initial=0.0))


def _support_arrays(f):
    """Support mask, lattice indices, values and safe inside-support radii."""
    from scipy import ndimage
    mask = f.values > 0
    # balls of radius under edt*h (edt: steps to the nearest zero node)
    # around a positive node stay strictly inside the trilinear support
    edt = ndimage.distance_transform_edt(mask)
    fvals = f.values[mask]
    r_sup = edt[mask] * f.spacing * (1.0 - 1e-9)
    return mask, np.argwhere(mask), fvals, r_sup


# the 18 lattice offsets d with 0 < |d|^2 <= 2
_OFFSETS = np.argwhere(np.ones((3, 3, 3), bool)) - 1
_OFFSETS = _OFFSETS[np.isin(np.square(_OFFSETS).sum(axis=1), (1, 2))]


def _one_step_balls(avail, mask, ijk, nodes, step, budget):
    """The end of phase 1, from the first time every room in `avail` is
    below 2 step: up to `budget` more greedy balls of q = 1, lowering
    `avail` as the tree-query loop would; returns their centers in
    placing order.

    Each such ball holds its own node alone (4 |d|^2 <= 1 only at d = 0)
    and the variance cap, which needs q > 1, passes it.  The loop's
    query would return a subset of the center's 18 lattice neighbours
    (|d|^2 <= 2, within 3 half steps); a neighbour beyond its radius
    (1 + a / step)(1 + 1e-9) has a gap above a, the largest room, so
    np.minimum keeps its room.  So the greedy runs on compact arrays:
    the live nodes (room >= step) in node order, then their other
    neighbours, then a dummy of room -inf that pads each live node's
    row of neighbours.  Only a live node can reach a room >= step, so
    the argmax's first index over the live entries is the full
    argmax's, ties included.  Each live node's 18 gaps are fixed and
    taken once, in the loop's arithmetic.
    """
    live = np.flatnonzero(avail >= step)
    if budget <= 0 or not live.size:
        return np.empty(0, np.intp)
    n = len(avail)
    # each lattice node's support index, n off the support, padded by
    # one node all round so every neighbour exists
    index = np.full(np.add(mask.shape, 2), n, np.intp)
    index[1:-1, 1:-1, 1:-1][mask] = np.arange(n)
    # one offset at a time, so that no (live, 18, 3) array is made
    nb = np.empty((len(live), len(_OFFSETS)), np.intp)
    for o, off in enumerate(_OFFSETS):
        nb[:, o] = index[tuple((ijk[live] + 1 + off).T)]
    rest = np.zeros(n + 1, bool)
    rest[nb] = True
    rest[live] = rest[n] = False
    rel = np.concatenate([live, np.flatnonzero(rest)])
    slot = np.full(n + 1, len(rel))
    slot[rel] = np.arange(len(rel))
    table = slot[nb]
    # the dummy sits at infinity, so its gap is inf and its room stays
    ends = np.vstack([nodes[rel], np.full(3, np.inf)])
    gap = np.empty(table.shape)
    for o, col in enumerate(table.T):
        gap[:, o] = np.sqrt(np.square(ends[col] - nodes[live]).sum(axis=1))
    gap -= step
    av = np.append(avail[rel], -np.inf)
    head = av[:len(live)]
    placed = []
    while len(placed) < budget:
        k = int(np.argmax(head))
        if not head[k] >= step:
            break
        j = table[k]
        av[k] = -np.inf
        av[j] = np.minimum(av[j], gap[k])
        placed.append(k)
    avail[rel] = av[:-1]
    return live[np.array(placed, np.intp)]


def spherical_filling(f, params):
    """Greedy interior-disjoint filling of f's support plus a per-node
    ball cover, both on f's own grid nodes (step h).

    Filling balls are centered on grid nodes with radii of q half steps
    down to the grid scale, then a single batched pass places sub-step
    balls, of radius at least MIN_BALL_STEPS h, on every remaining
    support node with room for one, which is what drives the measured
    residual-mass condition below its budget.  The covering is one
    radius-2h ball per support node: an open cover of the support whose
    members stay within 2h of it.

    Each greedy step takes the first node of largest room a.  While
    a >= h (two half steps) one tree query per ball finds the nodes the
    ball can touch.  Below that every ball has q = 1, holds its own node
    alone and touches only its 18 lattice neighbours, so phase 1 ends
    on a fixed (node, 18) neighbour table over the nodes still in play,
    kept in node order so that ties go to the same first node; see
    `_one_step_balls`.  Both parts take the same balls in the same order.

    Membership is exact, as `SphericalFilling` states.  The residual mass
    is measured by node quadrature on f's grid: a node's cell counts as
    captured once the node lies inside a filling ball, so sub-cell
    crevices are below the apparatus resolution, and budgets under one
    cell's mass are rejected outright.  Raises FillingBudgetError naming
    the violated condition when the budgets cannot be met at this
    resolution.
    """
    from scipy.spatial import cKDTree

    mask, ijk, fvals, r_sup = _support_arrays(f)
    h = f.spacing
    nodes = f.origin + h * ijk
    n_nodes = len(nodes)
    cell = h**3
    support_volume = n_nodes * cell
    budget = min(params.delta, params.eps)
    a1_bound = budget / 10.0
    a2_bound = budget / (10.0 * support_volume)
    if a1_bound <= cell * float(fvals.max()):
        # the residual is measured by node quadrature, whose granularity
        # is one cell's mass; a budget below that cannot be certified
        raise FillingBudgetError(
            "a1: residual budget %.3g is below one grid cell's mass %.3g; "
            "unachievable at grid step %.3g"
            % (a1_bound, cell * float(fvals.max()), h))
    min_r = MIN_BALL_STEPS * h
    step = h / 2.0
    f_range = float(fvals.max() - fvals.min())
    need_var_cap = f_range >= a2_bound
    half = 2 * ijk
    tree = cKDTree(half)

    # each node's room for a ball, min(r_sup, gap to the placed balls),
    # and -inf once covered, which both updates keep; a float, as phase 2
    # uses room below h/2.  avail only falls and no node exceeds the
    # chosen a, so a ball of q half steps can lower it only within
    # q + a / step of its center; the query takes q before the variance
    # cap, and the 1e-9 margin only widens it past the gaps' rounding.
    # For q = 1 that is within 3 half steps: the 18 lattice neighbours
    avail = r_sup.copy()
    centers, qs, in_ball = [], [], []

    # phase 1: quantized greedy, largest admissible ball first; packing
    # continues past the residual budget because every covered cell also
    # improves the metric fit later on.  One tree query per ball while
    # the room allows q >= 2: its near set holds the ball at every q up
    # to floor(a / step), so the variance cap lowers q on it, and its
    # covered nodes, in the query's order, are the ball's record
    while len(qs) < MAX_BALLS:
        i = int(np.argmax(avail))
        a = float(avail[i])
        if not a >= 2 * step:
            break
        q = math.floor(a / step)
        near = np.array(tree.query_ball_point(half[i], (q + a / step)
                                              * (1.0 + 1e-9)), dtype=np.intp)
        D2 = np.square(half[near] - half[i]).sum(axis=1)
        # lower q one half step at a time until f's node oscillation in
        # the ball is below a2; q = 1 holds only its own node, so it passes
        while (need_var_cap and q > 1
               and np.ptp(fvals[near[D2 <= q * q]]) >= a2_bound):
            q -= 1
        covered = D2 <= q * q
        # np.linalg.norm's arithmetic, without its call overhead
        d = np.sqrt(np.square(nodes[near] - nodes[i]).sum(axis=1))
        avail[near] = np.where(covered, -np.inf,
                               np.minimum(avail[near], d - q * step))
        centers.append(i)
        qs.append(q)
        in_ball.append(near[covered])
    # phase 1's end: once a < 2 step every ball has q = 1
    ones = _one_step_balls(avail, mask, ijk, nodes, step, MAX_BALLS - len(qs))

    # phase 2: batched sub-step endgame; radii capped below half the node
    # spacing so the new balls are mutually interior-disjoint by spacing
    idx = np.flatnonzero(avail > -np.inf)
    r_e = np.minimum(avail[idx], 0.495 * h) * 0.99
    keep = r_e >= min_r
    residual = float(fvals[idx[~keep]].sum() * cell)

    if residual >= a1_bound:
        raise FillingBudgetError(
            "a1: residual mass %.3g exceeds budget %.3g at grid step %.3g; "
            "refine the grid or raise the budgets" % (residual, a1_bound, h))
    if len(qs) + len(ones) + keep.sum() >= MAX_BALLS:
        raise FillingBudgetError("ball budget exhausted before meeting a1")

    centers = np.concatenate([centers, ones, idx[keep]]).astype(np.intp)
    filling = BallRegion(nodes[centers], np.concatenate(
        [np.multiply(qs, step), np.full(len(ones), step), r_e[keep]]))
    cover = BallRegion(nodes, np.full(n_nodes, COVER_RADIUS_STEPS * h))
    # the support nodes in each filling ball, flat; a ball of one half
    # step or less holds its own node alone, so none is empty
    at = np.concatenate(in_ball + [ones, idx[keep]])
    sizes = np.array([len(b) for b in in_ball]
                     + [1] * (len(ones) + int(keep.sum())), np.intp)
    starts = np.cumsum(sizes) - sizes
    f_at = fvals[at]
    ball_var = (np.maximum.reduceat(f_at, starts)
                - np.minimum.reduceat(f_at, starts))
    return SphericalFilling(filling, cover, residual, a1_bound, a2_bound,
                            mask, fvals, tree, at, starts, ball_var)


# ---------------------------------------------------------------------------
# background fitting

def _cover_kernel(steps, substeps=1):
    """Quadratic-bump covering profile sampled on a lattice.

    `substeps` lattice points per grid step; the bump radius is `steps`
    grid steps.
    """
    ax = np.arange(-steps * substeps, steps * substeps + 1)
    dx, dy, dz = np.meshgrid(ax, ax, ax, indexing="ij")
    d2 = (dx**2 + dy**2 + dz**2) / float(steps * substeps) ** 2
    return np.maximum(0.0, 1.0 - d2)


def _half_grid_values(vals):
    """Trilinear interpolation of a grid onto the half-step lattice."""
    out = vals
    for axis in range(3):
        a = np.moveaxis(out, axis, 0)
        mid = 0.5 * (a[:-1] + a[1:])
        merged = np.empty((a.shape[0] + mid.shape[0],) + a.shape[1:])
        merged[::2] = a
        merged[1::2] = mid
        out = np.moveaxis(merged, 0, axis)
    return out


def _convolver(kernel, shape):
    """x -> fftconvolve(x, kernel, mode="full") for x of `shape`, with the
    kernel's transform computed once.  The transform length is
    fftconvolve's own, so the result is bit-identical."""
    from scipy import fft

    full = [s + k - 1 for s, k in zip(shape, kernel.shape)]
    fshape = [fft.next_fast_len(n, True) for n in full]
    spec = fft.rfftn(kernel, fshape)
    crop = tuple(slice(n) for n in full)
    return lambda x: fft.irfftn(fft.rfftn(x, fshape) * spec, fshape)[crop]


def _fit_background(vals, mask, beta):
    """Per-node covering amplitudes whose bump sum tracks beta * f.

    Least-squares fit of A w to t = beta * trilinear f on the half-step
    lattice, where A puts w on the whole steps and convolves with the
    half-step bump: between the last positive node and its zero
    neighbors f ramps down inside one cell, which node-only fitting
    cannot see.  The residual covers every half step the background
    reaches, the grid box and the 2h rim outside it, where t = 0.  The
    projected gradient steps run on the node grid: A^T t is formed once,
    and A^T A is the bump's autocorrelation sampled at whole steps.  The
    cap keeps every amplitude safely below the node average of f over
    its ball.  Returns (amplitudes, background, node-average of f) on
    the node grid, the first two zero off the support, and the fit's
    iteration count and relative residual |t - A w| / |t|.
    """
    from scipy import ndimage

    K1 = _cover_kernel(COVER_RADIUS_STEPS)
    ind = (K1 > 0).astype(float)
    meanf = ndimage.convolve(vals, ind, mode="constant") / float(ind.sum())
    cap = np.where(mask, 0.9 * np.maximum(meanf, 0.0), 0.0)

    K2 = _cover_kernel(COVER_RADIUS_STEPS, substeps=2)
    gram = _convolver(K2, K2.shape)(K2)[::2, ::2, ::2]
    # stable gradient step: bound the normal-operator spectrum by its
    # row sum
    denom = float(gram.sum())
    # both kernels reach 2 * COVER_RADIUS_STEPS lattice points out, so
    # this crop of a full convolution is its same-mode part
    r = 2 * COVER_RADIUS_STEPS
    same, nodes = (slice(r, -r),) * 3, (slice(r, -r, 2),) * 3
    target = beta * _half_grid_values(vals)
    conv_half = _convolver(K2, target.shape)
    conv_gram = _convolver(gram, vals.shape)
    At = conv_half(target)[nodes]
    w = np.minimum(np.where(mask, beta * vals, 0.0) / float(K1.sum()), cap)
    for _ in range(FIT_ITERATIONS):
        w = np.clip(w + (At - conv_gram(w)[same]) / denom, 0.0, cap)
    up = np.zeros(target.shape)
    up[::2, ::2, ::2] = w
    Aw = conv_half(up)
    residual = np.linalg.norm(np.pad(target, r) - Aw) / np.linalg.norm(target)
    fit = {"iterations": FIT_ITERATIONS, "relative_residual": float(residual)}
    return w, Aw[nodes], meanf, fit


# ---------------------------------------------------------------------------
# approximation

@dataclass
class ApproximationResult:
    spma: SPMA
    report: dict
    filling: SphericalFilling


# per component of the approximation while it is assembled: center,
# outer radius, value at the center, taper or quadratic bump, and the
# ball it stands for: filling ball j as j, the covering ball of support
# node k as -1 - k
_PART = np.dtype([("center", float, 3), ("radius", float), ("value", float),
                  ("taper", bool), ("tag", np.intp)])


def spma_approximate(f, params):
    """Approximate a grid density by a smoothed point-mass array.

    One component per filling and covering ball.  The covering blanket
    carries a fitted background at BACKGROUND_FRACTION of f; each
    filling ball carries a constant-interior taper at the local mean of
    what the background leaves over.  Centers are nudged into general
    position (pairwise-distinct norms) at the end.  Verifies the
    required properties p1-p7 and raises ConstructionError naming the
    first failed one; the filling conditions are measured and reported.
    """
    filling = spherical_filling(f, params)
    fill, cover = filling.filling, filling.covering
    h = f.spacing
    mask, fvals, starts = filling.mask, filling.fvals, filling.starts
    sizes = np.diff(starts, append=len(filling.at))
    amp_floor = 1e-12 * max(float(fvals.max()), 1.0)

    w_grid, bg_grid, meanf_grid, fit = _fit_background(
        f.values, mask, BACKGROUND_FRACTION)
    cover_amp = np.maximum(w_grid[mask], amp_floor)
    lam_bg = bg_grid[mask]

    # filling plateaus on top of the background: the mean of what it
    # leaves over at each ball's support nodes
    fill_amp = np.maximum(np.add.reduceat((fvals - lam_bg)[filling.at],
                                          starts) / sizes, amp_floor)

    # one part per ball; perturb all centers into general position
    n_fill = len(fill)
    parts = np.zeros(n_fill + len(cover), _PART)
    parts["center"] = general_position_perturb(
        np.vstack([fill.centers, cover.centers]), min(1e-3 * h, 1e-3 * params.eps))
    parts["radius"] = np.concatenate([fill.radii, cover.radii])
    parts["value"] = np.concatenate([fill_amp, cover_amp])
    parts["taper"][:n_fill] = True
    parts["tag"] = np.concatenate([np.arange(n_fill),
                                   -1 - np.arange(len(cover))])

    # the extremal component must be smaller than eps/2; refine by local
    # re-filling at half step until it is
    parts = _shrink_extremal(parts, params, h)

    spma = _assemble(parts)
    report = _verify(spma, f, filling, params, meanf_grid[mask], parts["tag"])
    report["background_fit"] = fit
    failed = [k for k in ("p1", "p2", "p3", "p4", "p5", "p6", "p7")
              if not report[k]["pass"]]
    if failed:
        raise ConstructionError("constructed array failed %s: %s"
                                % (failed[0], report[failed[0]]))
    return ApproximationResult(spma, report, filling)


def _assemble(parts):
    """Constant-interior tapers (rim width TAPER_FRACTION of the radius)
    and quadratic bumps, each at its part's value at the center."""
    taper = parts["taper"]
    r, v = parts["radius"][taper], parts["value"][taper]
    tau = np.minimum(np.maximum(TAPER_FRACTION * r, 1e-6 * r), 0.5 * r)
    tables = [(np.flatnonzero(taper), np.stack([np.zeros_like(r), r - tau, r], axis=1),
               np.stack([v, v, np.zeros_like(v)], axis=1))]
    return SPMA.from_arrays(parts["center"], parts["radius"],
                            np.where(taper, TABLE, QUADRATIC), parts["value"],
                            tables)


def _shrink_extremal(parts, params, h):
    """Replace the outermost part by a half-step packing of tapers until
    its radius drops below eps/2."""
    limit = params.eps / 2.0
    for _ in range(12):
        i = int(np.argmax(np.linalg.norm(parts["center"], axis=1)))
        center, radius = parts["center"][i], parts["radius"][i]
        if radius < limit:
            return parts
        step = min(h / 2.0, 0.9 * limit)
        n_side = max(2, int(math.floor(2 * radius / step)))
        axes = [center[d] - radius + step * (np.arange(n_side) + 0.5)
                for d in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        d = np.linalg.norm(pts - center, axis=1)
        keep = d <= radius - 0.5 * step
        r_inside = np.minimum(radius - d[keep], 0.49 * step)
        sub = r_inside > 0.2 * step
        if not sub.any():
            raise ConstructionError(
                "cannot refine the extremal ball below eps/2")
        # the sub-balls take part i's place, value and tag
        k = int(sub.sum())
        parts = parts[np.concatenate([np.arange(i), np.full(k, i),
                                      np.arange(i + 1, len(parts))])]
        parts["center"][i:i + k] = pts[keep][sub]
        parts["radius"][i:i + k] = r_inside[sub]
        parts["taper"][i:i + k] = True
        parts["center"] = general_position_perturb(parts["center"], 1e-4 * h)
    raise ConstructionError("extremal ball refinement did not converge")


def _boundary_voxels(mask, origin, h):
    from scipy import ndimage
    edge = mask & ~ndimage.binary_erosion(mask)
    return origin + h * np.argwhere(edge)


def _verify(spma, f, filling, params, meanf, tags):
    """The p1-p7 / a1-a8 report of `spma` against f, over f's grid nodes
    and the filling's support record, `tags` as in _PART."""
    from scipy import ndimage

    delta, eps = params.delta, params.eps
    mask, fvals, nodes = filling.mask, filling.fvals, filling.covering.centers
    h = f.spacing
    cell = h**3
    report = {}

    centers = spma.centers
    radii = spma.radii
    norms = np.linalg.norm(centers, axis=1)
    n_fill = len(filling.filling)

    # voxelization of the array's support at grid scale: the covering
    # blanket puts a radius-2h ball on every support node, so the support
    # mask is the 2-step dilation of f's support mask (perturbations are
    # below 1e-3 h)
    struct = _cover_kernel(COVER_RADIUS_STEPS) > 0
    mask_lam = ndimage.binary_dilation(mask, structure=struct)

    # p1: positive masses, connected support
    n_comp = int(ndimage.label(mask_lam)[1])
    report["p1"] = {"pass": bool(n_comp == 1 and np.all(spma.masses > 0)),
                    "support_components": n_comp}

    # p2 / a3: every support node strictly inside some ball.  Every
    # amplitude is at least amp_floor > 0 and every profile is positive
    # strictly inside its ball, so that holds exactly where lambda > 0
    lam_vals = evaluate_on_grid(spma, f.origin, h, f.shape)
    uncovered = int(np.count_nonzero(~(lam_vals[mask] > 0)))
    report["p2"] = {"pass": uncovered == 0, "nodes_checked": len(nodes),
                    "nodes_uncovered": uncovered}
    report["a3"] = dict(report["p2"])

    # p3: measured L1 distance
    mu1 = lp_metric(f, spma, resolution=max(f.shape))
    report["p3"] = {"pass": bool(mu1 < delta), "mu1": mu1, "delta": delta}

    # p4/p5 and a4: set and boundary distances at voxel scale
    bf = _boundary_voxels(mask, f.origin, h)
    bl = _boundary_voxels(mask_lam, f.origin, h)
    d_boundary = hausdorff_distance(bf, bl)
    tol = 3.0 * h            # voxelization accuracy
    report["p5"] = {"pass": bool(d_boundary < eps + tol),
                    "boundary_hausdorff": d_boundary, "eps": eps,
                    "sampling_tol": tol}
    # K_f sits inside the blanket; the set distance is how far the
    # blanket extends beyond the support, from the tree's half steps
    d_set = h / 2.0 * float(np.max(filling.tree.query(
        2 * np.argwhere(mask_lam), k=1)[0]))
    report["p4"] = {"pass": bool(d_set < eps + tol), "set_distance": d_set}
    report["a4"] = {"pass": report["p4"]["pass"] and report["p5"]["pass"],
                    "set_distance": d_set, "boundary_hausdorff": d_boundary}

    # p6 / a5: Brillouin radius agreement
    R_f = float(np.max(np.linalg.norm(nodes, axis=1)))
    R_l = brillouin_radius(spma)
    report["p6"] = {"pass": bool(abs(R_f - R_l) < eps + tol),
                    "R_f": R_f, "R_lambda": R_l}
    report["a5"] = dict(report["p6"])

    # p7: pairwise-distinct center norms, exact
    report["p7"] = {"pass": bool(len(np.unique(norms)) == len(norms))}

    # extremal radius < eps/2
    i_ext = int(np.argmax(norms))
    report["extremal"] = {"pass": bool(radii[i_ext] < eps / 2.0),
                          "radius": float(radii[i_ext]),
                          "center_norm": float(norms[i_ext])}

    # a1, a2 from the filling
    report["a1"] = {"pass": bool(filling.residual_mass < filling.a1_bound),
                    "residual_mass": filling.residual_mass,
                    "bound": filling.a1_bound}
    report["a2"] = {"pass": bool(filling.max_ball_var < filling.a2_bound),
                    "max_ball_var": filling.max_ball_var,
                    "bound": filling.a2_bound}

    # a6: supports equal the prescribed balls by construction
    report["a6"] = {"pass": True, "by_construction": True}

    # a7 in the product form: per filling ball, the L1 error against f
    # stays below var * |ball| plus a volume-proportional share of a1's
    # residual bound; also reported with the component alone, which must
    # fail whenever f is locally constant (var = 0 but the error of any
    # continuous profile vanishing on the rim is positive)
    var, at, starts = filling.ball_var, filling.at, filling.starts
    vols = 4.0 / 3.0 * np.pi * _pow(filling.filling.radii, 3)
    allow = var * vols + filling.a1_bound * vols / vols.sum()
    fdiff = np.abs(f.values - lam_vals)[mask]
    err = np.add.reduceat(fdiff[at], starts) * cell
    worst = float(np.max(err - allow, initial=-np.inf))
    # the component of each filling ball that kept exactly one, else -1
    filled = np.flatnonzero(tags >= 0)
    own = np.full(n_fill, -1)
    own[tags[filled]] = filled
    own[np.bincount(tags[filled], minlength=n_fill) != 1] = -1
    # each owned ball's component at the ball's support nodes, from one
    # profile call over the owned balls' entries
    sizes = np.diff(starts, append=len(at))
    mine = np.repeat(own, sizes)
    keep = mine >= 0
    comp, at_own = mine[keep], at[keep]
    d = np.linalg.norm(nodes[at_own] - centers[comp], axis=1)
    owned = own >= 0
    err_lit = np.add.reduceat(np.abs(fvals[at_own] - spma.profile(comp, d)),
                              np.cumsum(sizes[owned]) - sizes[owned]) * cell
    worst_lit = float(np.max(err_lit - allow[owned], initial=-np.inf))
    report["a7"] = {"pass": bool(worst <= 0), "worst_excess": worst,
                    "worst_excess_component_alone": worst_lit,
                    "balls_checked": n_fill, "balls_total": n_fill,
                    "note": "product form with volume-proportional slack"}

    # a8: covering amplitudes below the node average of f over their
    # node's ball, split parts included
    cov_idx = np.flatnonzero(tags < 0)
    cov_amp = spma.profile(cov_idx, np.zeros(len(cov_idx)))
    excess8 = float(np.max(cov_amp - meanf[-1 - tags[cov_idx]]))
    report["a8"] = {"pass": bool(excess8 < 0), "worst_excess": excess8}

    report["summary"] = {
        "components": len(spma),
        "filling_balls": n_fill,
        "covering_balls": len(filling.covering),
        "mu1": mu1,
        "boundary_hausdorff": d_boundary,
        "set_distance": d_set,
        "R_f": R_f, "R_lambda": R_l,
    }
    return report


# ---------------------------------------------------------------------------
# snowman family

@dataclass(frozen=True)
class SnowmanParams:
    """Two-ball family: centers (+-1, 0, 0), radii 1 + gamma."""

    gamma: float
    m1: float = 1.0
    m2: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "m1", "m2"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, getattr(self, name)))


def build_snowman(p):
    """Two overlapping quadratic bumps at (+-1, 0, 0), masses m1 and m2."""
    a = 1.0 + p.gamma
    unit = quadratic_bump(1.0, a).total_mass()
    return SPMA([SmoothedPointMass((x, 0.0, 0.0), quadratic_bump(m / unit, a))
                 for x, m in ((1.0, p.m1), (-1.0, p.m2))])


def snowman_waist_radius(gamma):
    """Radius of the waist circle where the two spheres intersect.

    sqrt((1+gamma)^2 - 1); strictly increasing, exceeds 1 for
    gamma > sqrt(2) - 1.
    """
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return math.sqrt((1.0 + gamma) ** 2 - 1.0)


def snowman_clears(waist, pointmass_radius):
    """The snowman verdict: the waist circle clears the point-mass
    Brillouin sphere.  Strict: equality within 1e-12 relative (roundoff
    in the waist formula) counts as not descending."""
    return bool(waist > pointmass_radius * (1.0 + 1e-12))


@dataclass(frozen=True)
class SnowmanReport:
    descends: bool
    gamma: float
    waist_radius: float
    pointmass_radius: float
    spma_radius: float
    rc_estimate: float
    reports: tuple = ()          # per-direction ConvergenceReports


def snowman_descends_to_topography(p, n_max=300, k=32):
    """True iff the waist circle clears the point-mass Brillouin sphere
    (`snowman_clears`).  The array's estimated convergence radius and
    its per-direction fits are attached for corroboration.
    """
    spma = build_snowman(p)
    waist = snowman_waist_radius(p.gamma)
    pm = spma.as_point_masses()
    R_pm = pointmass_brillouin_radius(pm)
    rc, reports = pointmass_rc(pm, n_max, k=k)
    return SnowmanReport(snowman_clears(waist, R_pm), p.gamma, waist, R_pm,
                         brillouin_radius(spma), rc, reports)
