"""Convergence-radius estimation and divergence classification.

The primary estimator applies the root test to the lumped per-degree
direction sums b_n: the least-squares slope of log|b_n| against n gives
limsup |b_n|^(1/n), hence the critical radius R * exp(slope).  Raw
partial-sum behaviour near the critical radius is too slow to classify
robustly, so partial sums serve only as a corroborating check.
"""

import math

import numpy as np
from dataclasses import dataclass

from .density import PointMasses
from .geometry import brillouin_radius, pointmass_brillouin_radius
from .she import (Direction, coeffs_from_point_masses,
                  direction_coefficient_table, fibonacci_directions,
                  partial_sum_sequence)

__all__ = ["ConvergenceReport", "PartialSumReport", "DescentReport",
           "estimate_rc", "estimate_rc_reports", "fit_window",
           "rc_from_reports", "pointmass_rc", "classify_partial_sums",
           "epsilon_descent_check", "AllDirectionsInconclusive"]

ABS_FLOOR = 1e-300
DEFAULT_WINDOW_FRACTION = 0.25
MIN_FIT_SPAN = 8         # degrees n_hi - n_lo a root-test window must span
DEFAULT_DIRECTIONS = 64
GROWTH_FACTOR = 1e6      # partial-sum blow-up that counts as divergence


class AllDirectionsInconclusive(RuntimeError):
    """No direction produced a usable coefficient-decay fit."""

    def __init__(self):
        super().__init__(
            "coefficient decay inconclusive in every sampled direction")


@dataclass(frozen=True)
class ConvergenceReport:
    direction: Direction
    rc_estimate: float
    method: str
    fit_window: tuple
    residual: float
    classification: str          # convergent_at / divergent_at / inconclusive


@dataclass(frozen=True)
class PartialSumReport:
    classification: str
    radius: float
    n_used: int
    final_sum: float
    max_abs_sum: float
    late_fluctuation: float


@dataclass(frozen=True)
class DescentReport:
    descends: bool
    brillouin_radius: float
    rc_estimate: float
    eps: float
    inconclusive_rc: bool = False
    reports: tuple = ()          # per-direction ConvergenceReports


def fit_window(n_max, window=None):
    """The root test's degree window (n_lo, n_hi): `window`, or by default
    floor(n_max / 4)..n_max.  Raises ValueError naming the window when it
    leaves [0, n_max] or spans fewer than MIN_FIT_SPAN degrees."""
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be non-negative, got %d" % n_max)
    label = "fit window"
    if window is None:
        window = (max(0, int(n_max * DEFAULT_WINDOW_FRACTION)), n_max)
        label = "default fit window (n_max/4..n_max)"
    n_lo, n_hi = int(window[0]), int(window[1])
    if not 0 <= n_lo < n_hi <= n_max:
        raise ValueError("%s %d,%d must lie within [0, n_max=%d]"
                         % (label, n_lo, n_hi, n_max))
    if n_hi - n_lo < MIN_FIT_SPAN:
        raise ValueError("%s %d,%d must span at least %d degrees"
                         % (label, n_lo, n_hi, MIN_FIT_SPAN))
    return n_lo, n_hi


def _fit_report(b, d, window, ref_radius):
    """Root-test convergence-radius estimate from one direction's b_n over
    a window checked by `fit_window`.

    Degrees whose lumped coefficient falls below the 1e-300 floor are
    skipped; when more than half the window is skipped the report is
    inconclusive rather than an estimate of zero (parity cancellations on
    symmetric configurations would otherwise masquerade as descent).  The
    least-squares line through the kept (n, log|b_n|) is taken in closed
    form about their means.
    """
    n_lo, n_hi = window
    vals = np.abs(b[n_lo:n_hi + 1])
    x = np.flatnonzero(vals > ABS_FLOOR)    # kept degrees, less n_lo
    if 2 * len(x) <= len(vals):
        return ConvergenceReport(d, 0.0, "root_test", (n_lo, n_hi),
                                 float("inf"), "inconclusive")
    y = np.log(vals[x])
    x = x - x.sum() / len(x)
    y -= y.sum() / len(y)
    slope = (x @ y) / (x @ x)
    y -= slope * x
    resid = math.sqrt((y @ y) / len(y))
    rc = float(ref_radius * math.exp(slope))
    return ConvergenceReport(d, rc, "root_test", (n_lo, n_hi), resid,
                             "convergent_at")


def estimate_rc(c, k=DEFAULT_DIRECTIONS, window=None):
    """Max per-direction estimate over a Fibonacci direction sample."""
    return rc_from_reports(estimate_rc_reports(c, k=k, window=window))


def estimate_rc_reports(c, k=DEFAULT_DIRECTIONS, window=None):
    """Per-direction reports in lattice order (CSV-friendly)."""
    if k < 1:
        raise ValueError("need at least one direction")
    window = fit_window(c.n_max, window)
    dirs = fibonacci_directions(k)
    thetas = np.array([d.theta for d in dirs])
    phis = np.array([d.phi for d in dirs])
    b_all = direction_coefficient_table(c, thetas, phis)
    return [_fit_report(b_all[i], d, window, c.ref_radius)
            for i, d in enumerate(dirs)]


def rc_from_reports(reports):
    """The convergence-radius estimate: the largest conclusive one.

    Raises AllDirectionsInconclusive when no report is conclusive.
    """
    usable = [r.rc_estimate for r in reports
              if r.classification != "inconclusive"]
    if not usable:
        raise AllDirectionsInconclusive()
    return float(max(usable))


def pointmass_rc(pms, n_max, k=DEFAULT_DIRECTIONS, window=None):
    """(R_c, per-direction reports) of a point-mass array's expansion at
    its own Brillouin radius (1.0 if every mass sits at the origin);
    R_c is 0.0 when every direction is inconclusive."""
    pms = PointMasses.of(pms)
    R_ref = pointmass_brillouin_radius(pms) or 1.0
    c = coeffs_from_point_masses(pms, R_ref, n_max)
    reports = tuple(estimate_rc_reports(c, k=k, window=window))
    try:
        return rc_from_reports(reports), reports
    except AllDirectionsInconclusive:
        return 0.0, reports


def classify_partial_sums(c, r, d):
    """Classify the series through degree c.n_max at radius r along
    direction d.

    divergent_at: the running partial sums blow up by GROWTH_FACTOR
    while late term magnitudes keep increasing.  convergent_at: the
    partial sums over the last quarter of the degrees fluctuate by less
    than 1e-9 of the final sum.  Anything else is inconclusive.
    """
    r = float(r)
    if not r > 0:
        raise ValueError("radius must be positive")
    S, t = partial_sum_sequence(c, d, r)
    absS = np.abs(S)
    q = max(1, (c.n_max + 1) // 4)
    last = slice(len(S) - q, len(S))
    second = slice(q, 2 * q)
    tmag = np.abs(t)
    late_growth = np.median(tmag[last]) > np.median(tmag[second])
    fluct = float(S[last].max() - S[last].min())
    if absS.max() > GROWTH_FACTOR * max(absS[0], ABS_FLOOR) and late_growth:
        cls = "divergent_at"
    elif fluct < 1e-9 * max(abs(S[-1]), ABS_FLOOR):
        cls = "convergent_at"
    else:
        cls = "inconclusive"
    return PartialSumReport(cls, r, c.n_max, float(S[-1]), float(absS.max()),
                            fluct)


def epsilon_descent_check(spma, eps, n_max=400, k=DEFAULT_DIRECTIONS):
    """Does the array's expansion reach eps below its Brillouin sphere?

    Outside its support the array's potential is exactly that of the
    equivalent point-mass array (shell theorem), so the convergence
    radius is estimated from the analytic point-mass coefficients.  A
    radially symmetric configuration leaves every direction inconclusive;
    that is reported as R_c = 0 (the exterior field is exactly GM/r).
    """
    eps = float(eps)
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite, got %r" % eps)
    R_support = brillouin_radius(spma)
    rc, reports = pointmass_rc(spma.as_point_masses(), n_max, k=k)
    inconclusive = all(r.classification == "inconclusive" for r in reports)
    return DescentReport(rc <= R_support - eps, R_support, rc, eps,
                         inconclusive, reports)
