"""Command-line front end: batch experiments with deterministic CSV output.

Subcommands: coeffs, descent, approximate, potential, rc, snowman-scan.
All floating-point output uses 17 significant digits so files round-trip
bit-exactly; CSV bodies are byte-identical across runs for identical
inputs.  Exit codes: 0 success, 2 validation failure, 3 numeric failure
(an inconclusive result where a conclusion was required).
"""

import argparse
import json
import sys

import numpy as np

from .density import GridDensity, PointMass, load_spma, save_spma
from .geometry import pointmass_brillouin_radius
from .she import (Direction, coeffs_from_point_masses,
                  coeffs_from_sphere_quadrature, evaluate_partial_sum)
from .potential import potential_point_masses, potential_spma, potential_oracle
from .convergence import (AllDirectionsInconclusive, epsilon_descent_check,
                          pointmass_rc, rc_from_reports)
from .construct import (ConstructionError, FillingBudgetError, FillingParams,
                        SnowmanParams, build_snowman, snowman_clears,
                        snowman_waist_radius, snowman_descends_to_topography,
                        spma_approximate)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _fmt(x):
    """17-significant-digit representation, stable across runs."""
    return format(float(x), ".17g")


class CliError(Exception):
    def __init__(self, message, code=EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def load_point_masses(path):
    """Point-mass file: one `x y z m` line per mass; # comments allowed."""
    masses = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise CliError("%s:%d: expected 'x y z m', got %r"
                               % (path, lineno, line))
            try:
                x, y, z, m = (float(p) for p in parts)
                masses.append(PointMass((x, y, z), m))
            except ValueError as exc:
                raise CliError("%s:%d: %s in %r" % (path, lineno, exc, line))
    if not masses:
        raise CliError("%s: no point masses found" % path)
    return masses


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        raise CliError("missing required option(s): "
                       + ", ".join("--" + n for n in missing))


def _masses_from_args(args):
    """Resolve the mass model shared by several subcommands."""
    sources = [s for s in ("spma", "points", "snowman_gamma")
               if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise CliError("exactly one of --spma, --points, --snowman-gamma "
                       "is required")
    if args.spma is not None:
        spma = load_spma(args.spma)
        return spma, spma.as_point_masses()
    if args.points is not None:
        return None, load_point_masses(args.points)
    spma = build_snowman(SnowmanParams(args.snowman_gamma))
    return spma, spma.as_point_masses()


def _write_rc_csv(path, reports):
    with open(path, "w") as fh:
        fh.write("direction_index,theta,phi,rc_estimate,method,"
                 "n_lo,n_hi,residual,classification\n")
        for i, r in enumerate(reports):
            fh.write("%d,%s,%s,%s,%s,%d,%d,%s,%s\n"
                     % (i, _fmt(r.direction.theta), _fmt(r.direction.phi),
                        _fmt(r.rc_estimate), r.method, r.fit_window[0],
                        r.fit_window[1], _fmt(r.residual), r.classification))


# ---------------------------------------------------------------------------
# subcommands

def cmd_coeffs(args):
    _require(args, "out")
    spma, masses = _masses_from_args(args)
    R = args.R if args.R is not None else pointmass_brillouin_radius(masses)
    if not R > 0:
        raise CliError("reference radius must be positive (all masses at "
                       "the origin? pass --R)")
    c = coeffs_from_point_masses(masses, R, args.n_max, G=args.G)
    c.save(args.out, threshold=args.threshold)
    print("wrote %s (n_max=%d R=%s GM=%s)"
          % (args.out, c.n_max, _fmt(c.ref_radius), _fmt(c.GM)))
    if args.dual_path:
        R_quad = args.quad_radius
        if R_quad is None:
            R_quad = 1.2 * pointmass_brillouin_radius(masses)
        pot = lambda pts: potential_point_masses(masses, pts)
        cq = coeffs_from_sphere_quadrature(
            pot, R_quad, R, args.n_max,
            brillouin_radius=pointmass_brillouin_radius(masses),
            oversample=args.oversample)
        qpath = args.out + ".quad"
        cq.save(qpath, threshold=args.threshold)
        print("wrote %s (quadrature radius %s)" % (qpath, _fmt(R_quad)))
    return EXIT_OK


def cmd_descent(args):
    if args.subject == "snowman":
        rep = snowman_descends_to_topography(
            SnowmanParams(args.gamma, args.m1, args.m2, args.profile),
            n_max=args.n_max, k=args.directions)
        R, eps = rep.spma_radius, 0.0
        waist = " waist=" + _fmt(rep.waist_radius)
    else:
        if args.file is None or args.eps is None:
            raise CliError("descent spma requires --file and --eps")
        rep = epsilon_descent_check(load_spma(args.file), args.eps,
                                    n_max=args.n_max, k=args.directions)
        R, eps, waist = rep.brillouin_radius, rep.eps, ""
    print("R=%s Rc=%s eps=%s descends=%s%s"
          % (_fmt(R), _fmt(rep.rc_estimate), _fmt(eps),
             str(rep.descends).lower(), waist))
    if args.out:
        _write_rc_csv(args.out, rep.reports)
    if args.subject == "spma" and rep.inconclusive_rc:
        raise AllDirectionsInconclusive()
    return EXIT_OK


def cmd_approximate(args):
    _require(args, "density", "delta", "eps", "out", "report")
    f = GridDensity.load(args.density)
    params = FillingParams(delta=args.delta, eps=args.eps,
                           grid_resolution=args.resolution,
                           min_ball_radius=args.min_ball_radius)
    try:
        result = spma_approximate(f, params)
    except FillingBudgetError as exc:
        raise CliError("filling budget unachievable: %s" % exc, EXIT_NUMERIC)
    except ConstructionError as exc:
        raise CliError(str(exc), EXIT_NUMERIC)
    save_spma(result.spma, args.out)
    with open(args.report, "w") as fh:
        json.dump(result.report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    s = result.report["summary"]
    print("wrote %s (%d components) and %s; mu1=%s"
          % (args.out, s["components"], args.report, _fmt(s["mu1"])))
    return EXIT_OK


def cmd_potential(args):
    _require(args, "r-from", "r-to")
    spma, masses = _masses_from_args(args)
    d = np.asarray([float(t) for t in args.direction.split(",")])
    if d.shape != (3,) or not np.linalg.norm(d) > 0:
        raise CliError("--direction must be a nonzero x,y,z triple")
    d = d / np.linalg.norm(d)
    radii = np.linspace(args.r_from, args.r_to, args.samples)
    # all masses at the origin: any reference radius expands exactly
    R = pointmass_brillouin_radius(masses) or 1.0
    c = coeffs_from_point_masses(masses, R, args.n_max, G=args.G)
    # one direction table for the whole ray; r <= 0 has no series value
    series = np.full(len(radii), np.nan)
    positive = radii > 0
    series[positive] = evaluate_partial_sum(
        c, args.n_max, radii[positive], Direction.from_vector(d))
    rows = []
    for r, v_series in zip(radii, series):
        x = r * d
        cells = ["%s,%s,%s" % (_fmt(x[0]), _fmt(x[1]), _fmt(x[2]))]
        try:
            if spma is not None:
                v_exact = potential_spma(spma, x)
            else:
                v_exact = potential_point_masses(masses, x)
            cells.append(_fmt(v_exact))
        except ZeroDivisionError:
            cells.append("ERROR")
        cells.append(_fmt(v_series) if r > 0 else "ERROR")
        if args.oracle_resolution > 0 and spma is not None:
            try:
                cells.append(_fmt(potential_oracle(
                    spma, x, resolution=args.oracle_resolution)))
            except ValueError:
                cells.append("ERROR")
        else:
            cells.append("")
        rows.append(",".join(cells))
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("x,y,z,V_exact,V_partial_sum_N,V_oracle\n")
        for row in rows:
            out.write(row + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_rc(args):
    spma, masses = _masses_from_args(args)
    if not pointmass_brillouin_radius(masses) > 0:
        raise CliError("all masses at the origin: no expansion to analyze")
    window = None
    if args.window:
        lo, hi = (int(t) for t in args.window.split(","))
        window = (lo, hi)
    _, reports = pointmass_rc(masses, args.n_max, k=args.directions,
                              window=window, G=args.G)
    if args.out:
        _write_rc_csv(args.out, reports)
    print("Rc=%s" % _fmt(rc_from_reports(reports)))
    return EXIT_OK


def _snowman_verdict(gamma):
    """Waist radius and descent verdict of the snowman at gamma."""
    pm = build_snowman(SnowmanParams(gamma)).as_point_masses()
    waist = snowman_waist_radius(gamma)
    return waist, snowman_clears(waist, pointmass_brillouin_radius(pm))


def cmd_snowman_scan(args):
    _require(args, "gamma-from", "gamma-to")
    if not (args.gamma_from > 0 and args.gamma_to > args.gamma_from):
        raise CliError("need 0 < --gamma-from < --gamma-to")
    gammas = np.linspace(args.gamma_from, args.gamma_to, args.steps)
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("gamma,waist_radius,descends\n")
        for g in gammas:
            waist, descends = _snowman_verdict(g)
            out.write("%s,%s,%s\n" % (_fmt(g), _fmt(waist),
                                      str(descends).lower()))
        if args.bisect:
            lo, hi = args.gamma_from, args.gamma_to
            at_lo = _snowman_verdict(lo)[1]
            if _snowman_verdict(hi)[1] == at_lo:
                raise CliError("the descent verdict does not change in the "
                               "gamma range", EXIT_NUMERIC)
            while hi - lo > args.tol:
                mid = 0.5 * (lo + hi)
                if _snowman_verdict(mid)[1] != at_lo:
                    hi = mid
                else:
                    lo = mid
            out.write("threshold_low=%s threshold_high=%s\n"
                      % (_fmt(lo), _fmt(hi)))
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_mass_model(p):
    p.add_argument("--spma", help="SPMA file")
    p.add_argument("--points", help="point-mass file (x y z m per line)")
    p.add_argument("--snowman-gamma", type=float,
                   help="use the two-ball snowman with this gamma")
    p.add_argument("--G", type=float, default=1.0)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gravharm",
        description="Smoothed point-mass gravity models, harmonic "
                    "expansions, and convergence diagnostics.")
    ap.add_argument("--config", help="JSON file of flag defaults "
                                     "(flags override; unknown keys rejected)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="expansion coefficients to CSV")
    _add_mass_model(p)
    p.add_argument("--R", type=float, help="reference radius "
                                           "(default: mass array radius)")
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--threshold", type=float, default=1e-15)
    p.add_argument("--out")
    p.add_argument("--dual-path", action="store_true",
                   help="also derive coefficients by sphere quadrature "
                        "of the potential, written to OUT.quad")
    p.add_argument("--quad-radius", type=float)
    p.add_argument("--oversample", type=int, default=80)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("descent", help="does the expansion reach the "
                                       "topography / eps below the sphere?")
    p.add_argument("subject", choices=["snowman", "spma"])
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--m1", type=float, default=1.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--profile", default="quadratic_bump")
    p.add_argument("--file", help="SPMA file (subject spma)")
    p.add_argument("--eps", type=float)
    p.add_argument("--n-max", type=int, default=400)
    p.add_argument("--directions", type=int, default=64)
    p.add_argument("--out", help="per-direction convergence CSV")
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("approximate",
                       help="smoothed-array approximation of a grid density")
    p.add_argument("--density", help="GridDensity file")
    p.add_argument("--delta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--resolution", type=int, default=0)
    p.add_argument("--min-ball-radius", type=float, default=0.0)
    p.add_argument("--out", help="output SPMA file")
    p.add_argument("--report", help="verification JSON")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("potential", help="potential along a ray to CSV")
    _add_mass_model(p)
    p.add_argument("--direction", default="0,0,1")
    p.add_argument("--r-from", type=float)
    p.add_argument("--r-to", type=float)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--oracle-resolution", type=int, default=0,
                   help="brute-force quadrature resolution (0: skip)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("rc", help="convergence-radius estimate")
    _add_mass_model(p)
    p.add_argument("--n-max", type=int, default=400)
    p.add_argument("--directions", type=int, default=64)
    p.add_argument("--window", help="fit window 'n_lo,n_hi'")
    p.add_argument("--out", help="per-direction CSV")
    p.set_defaults(func=cmd_rc)

    p = sub.add_parser("snowman-scan",
                       help="sweep gamma; waist radius and descent flag")
    p.add_argument("--gamma-from", type=float)
    p.add_argument("--gamma-to", type=float)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--bisect", action="store_true",
                   help="bisect where the descent verdict flips")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_snowman_scan)
    ap.subcommands = sub.choices
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            with open(args.config) as fh:
                conf = json.load(fh)
            known = set(vars(args)) - {"command", "func"}
            unknown = sorted(set(conf) - known)
            if unknown:
                raise CliError("unknown config keys: %s" % ", ".join(unknown))
            # flags override the config file: only fill in values the
            # command line left at their defaults (read from the
            # subcommand's parser, which would demand its positionals if
            # it were asked to parse)
            command = ap.subcommands[args.command]
            for key, value in conf.items():
                if key == "config":
                    continue
                if getattr(args, key) == command.get_default(key):
                    setattr(args, key, value)
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except AllDirectionsInconclusive as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
