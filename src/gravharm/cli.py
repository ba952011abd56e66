"""Command-line front end: batch experiments with deterministic CSV output.

Subcommands: coeffs, descent, approximate, potential, rc, snowman-scan.
All floating-point output uses 17 significant digits so files round-trip
bit-exactly; CSV bodies are byte-identical across runs for identical
inputs.  Exit codes: 0 success, 2 validation failure, 3 numeric failure
(an inconclusive result where a conclusion was required).
"""

import argparse
import functools
import json
import sys

import numpy as np

from .density import (ComponentError, GridDensity, PointMasses, load_spma,
                      save_spma)
from .geometry import pointmass_brillouin_radius
from .she import (coeffs_from_point_masses, coeffs_from_sphere_quadrature,
                  pointmass_direction_sums, series_value)
from .potential import (_point_mass_sums, oracle_clear, potential_oracle,
                        potential_point_masses, potential_spma)
from .convergence import (AllDirectionsInconclusive, epsilon_descent_check,
                          fit_window, pointmass_rc, rc_from_reports)
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
    """Point-mass file: one `x y z m` line per mass; # comments allowed.

    Returns a PointMasses; a bad row raises CliError naming path:line.
    """
    rows, linenos = [], []
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
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise CliError("%s:%d: %s in %r" % (path, lineno, exc, line))
            linenos.append(lineno)
    if not rows:
        raise CliError("%s: no point masses found" % path)
    rows = np.array(rows)
    try:
        return PointMasses(rows[:, :3], rows[:, 3])
    except ComponentError as exc:
        raise CliError("%s:%d: %s" % (path, linenos[exc.index], exc.reason))


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


def _fit_window(n_max, window=None):
    """The root test's fit window, checked before any work; an unusable
    window names the option that set it."""
    try:
        return fit_window(n_max, window)
    except ValueError as exc:
        raise CliError("%s (set by %s)" % (
            exc, "--n-max" if window is None else "--window"))


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
    R_pm = pointmass_brillouin_radius(masses)
    R = args.R if args.R is not None else R_pm
    if not R > 0:
        raise CliError("reference radius must be positive (all masses at "
                       "the origin? pass --R)")
    c = coeffs_from_point_masses(masses, R, args.n_max, G=args.G)
    if args.dual_path:          # before writing: a rejected path writes no file
        R_quad = args.quad_radius
        if R_quad is None:
            R_quad = 1.2 * R_pm
        pot = lambda pts: potential_point_masses(masses, pts, G=args.G)
        cq = coeffs_from_sphere_quadrature(
            pot, R_quad, R, args.n_max, brillouin_radius=R_pm,
            oversample=args.oversample)
    c.save(args.out, threshold=args.threshold)
    print("wrote %s (n_max=%d R=%s GM=%s)"
          % (args.out, c.n_max, _fmt(c.ref_radius), _fmt(c.GM)))
    if args.dual_path:
        qpath = args.out + ".quad"
        cq.save(qpath, threshold=args.threshold)
        print("wrote %s (quadrature radius %s)" % (qpath, _fmt(R_quad)))
    return EXIT_OK


def cmd_descent(args):
    _fit_window(args.n_max)
    if args.subject == "snowman":
        rep = snowman_descends_to_topography(
            SnowmanParams(args.gamma, args.m1, args.m2),
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
    params = FillingParams(delta=args.delta, eps=args.eps)
    f = GridDensity.load(args.density)
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
    # a1-a8 and the extremal check are reported, not enforced: a failure
    # leaves the exit code at 0, so say so on stderr
    for key in ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "extremal"):
        check = result.report[key]
        if not check["pass"]:
            figures = ["%s=%g" % (k, v) for k, v in check.items()
                       if isinstance(v, (int, float))
                       and not isinstance(v, bool)]
            print("warning: %s fails: %s" % (key, " ".join(figures)),
                  file=sys.stderr)
    return EXIT_OK


def cmd_potential(args):
    _require(args, "r-from", "r-to")
    spma, masses = _masses_from_args(args)
    d = args.direction
    radii = np.linspace(args.r_from, args.r_to, args.samples)
    x = radii[:, None] * d
    # all masses at the origin: any reference radius expands exactly
    R = pointmass_brillouin_radius(masses) or 1.0
    b = pointmass_direction_sums(masses, R, args.n_max, d)
    # each column for the whole ray, with the rows it has a value for:
    # a point-mass potential has none at a mass, the series none at r <= 0
    if spma is not None:
        exact = potential_spma(spma, x, G=args.G)
    else:
        exact = _point_mass_sums(masses, x, G=args.G)
    positive = radii > 0
    series = np.full(len(radii), np.nan)
    series[positive] = series_value(args.G * float(masses.masses.sum()), R,
                                    b, radii[positive])
    columns = [(exact, ~np.isnan(exact)), (series, positive)]
    if args.oracle_resolution > 0 and spma is not None:
        clear = oracle_clear(spma, x, args.oracle_resolution)
        oracle = np.full(len(radii), np.nan)
        if clear.any():
            oracle[clear] = potential_oracle(
                spma, x[clear], G=args.G, resolution=args.oracle_resolution)
        columns.append((oracle, clear))
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("x,y,z,V_exact,V_partial_sum_N,V_oracle\n")
        for i, xi in enumerate(x):
            cells = [_fmt(t) for t in xi]
            cells += [_fmt(v[i]) if ok[i] else "ERROR" for v, ok in columns]
            if len(columns) == 2:
                cells.append("")
            out.write(",".join(cells) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_rc(args):
    spma, masses = _masses_from_args(args)
    if not pointmass_brillouin_radius(masses) > 0:
        raise CliError("all masses at the origin: no expansion to analyze")
    window = _fit_window(args.n_max, args.window)
    _, reports = pointmass_rc(masses, args.n_max, k=args.directions,
                              window=window)
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
    if not args.gamma_to > args.gamma_from:
        raise CliError("need --gamma-from < --gamma-to")
    lo, hi = args.gamma_from, args.gamma_to
    # both ends before --out opens: a range the bisection rejects writes
    # no file
    if args.bisect:
        at_lo = _snowman_verdict(lo)[1]
        if _snowman_verdict(hi)[1] == at_lo:
            raise CliError("the descent verdict does not change in the "
                           "gamma range", EXIT_NUMERIC)
    gammas = np.linspace(lo, hi, args.steps)
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("gamma,waist_radius,descends\n")
        for g in gammas:
            waist, descends = _snowman_verdict(g)
            out.write("%s,%s,%s\n" % (_fmt(g), _fmt(waist),
                                      str(descends).lower()))
        if args.bisect:
            while hi - lo > args.tol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:       # lo and hi are adjacent floats
                    break
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
# parser: each flag's type converts its value and checks the flag's rule,
# so a bad value stops the command before any work

def _rule(convert, holds, wants):
    """An argparse type: the converted text if `holds` of it, else an
    error that says what the flag wants and what it got."""
    def check(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError("must be %s, got %r"
                                             % (wants, text))
        if not holds(value):
            raise argparse.ArgumentTypeError("must be %s, got %s"
                                             % (wants, value))
        return value
    return check


def _unit_vector(text):
    """x,y,z to a unit vector; ValueError unless a nonzero finite triple."""
    d = np.array([float(t) for t in text.split(",")])
    if d.shape != (3,) or not 0 < np.linalg.norm(d) < np.inf:
        raise ValueError(text)
    return d / np.linalg.norm(d)


def _int_pair(text):
    """n_lo,n_hi to a pair of ints; ValueError unless exactly two."""
    lo, hi = (int(t) for t in text.split(","))
    return lo, hi


_POSITIVE = _rule(float, lambda v: 0 < v < np.inf, "positive and finite")
_FINITE = _rule(float, lambda v: abs(v) < np.inf, "finite")
_NONNEGATIVE = _rule(int, lambda v: v >= 0, "non-negative")
_AT_LEAST_1 = _rule(int, lambda v: v >= 1, "at least 1")


def _add_mass_model(p):
    p.add_argument("--spma", help="SPMA file")
    p.add_argument("--points", help="point-mass file (x y z m per line)")
    p.add_argument("--snowman-gamma", type=_POSITIVE,
                   help="use the two-ball snowman with this gamma")


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose own rejections (an unrecognized or
    ambiguous flag, a missing positional) raise CliError, so main prints
    them as `error: ...` and returns 2, without usage text.  Its
    subparsers are of this class too."""

    def error(self, message):
        raise CliError(message)


def build_parser():
    ap = _Parser(
        prog="gravharm", exit_on_error=False,
        description="Smoothed point-mass gravity models, harmonic "
                    "expansions, and convergence diagnostics.")
    ap.add_argument("--config", help="JSON file of flag defaults "
                                     "(flags override; unknown keys rejected)")
    sub = ap.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, exit_on_error=False)

    p = add_parser("coeffs", help="expansion coefficients to CSV")
    _add_mass_model(p)
    p.add_argument("--G", type=_POSITIVE, default=1.0,
                   help="gravitational constant (scales every potential)")
    p.add_argument("--R", type=_POSITIVE, help="reference radius "
                                               "(default: mass array radius)")
    p.add_argument("--n-max", type=_NONNEGATIVE, default=60)
    # at 1 or more the (0, 0) row would go
    p.add_argument("--threshold", default=1e-15, type=_rule(
        float, lambda v: 0 <= v < 1, "finite and in [0, 1)"))
    p.add_argument("--out")
    p.add_argument("--dual-path", action="store_true",
                   help="also derive coefficients by sphere quadrature "
                        "of the potential, written to OUT.quad")
    p.add_argument("--quad-radius", type=_POSITIVE)
    p.add_argument("--oversample", type=_NONNEGATIVE, default=80)

    p = add_parser("descent", help="does the expansion reach the "
                                   "topography / eps below the sphere?")
    p.add_argument("subject", choices=["snowman", "spma"])
    p.add_argument("--gamma", type=_POSITIVE, default=0.5)
    p.add_argument("--m1", type=_POSITIVE, default=1.0)
    p.add_argument("--m2", type=_POSITIVE, default=1.0)
    p.add_argument("--file", help="SPMA file (subject spma)")
    p.add_argument("--eps", type=_POSITIVE)
    p.add_argument("--n-max", type=_NONNEGATIVE, default=400)
    p.add_argument("--directions", type=_AT_LEAST_1, default=64)
    p.add_argument("--out", help="per-direction convergence CSV")

    p = add_parser("approximate",
                   help="smoothed-array approximation of a grid density")
    p.add_argument("--density", help="GridDensity file")
    p.add_argument("--delta", type=_POSITIVE)
    p.add_argument("--eps", type=_POSITIVE)
    p.add_argument("--out", help="output SPMA file")
    p.add_argument("--report", help="verification JSON")

    p = add_parser("potential", help="potential along a ray to CSV")
    _add_mass_model(p)
    p.add_argument("--G", type=_POSITIVE, default=1.0,
                   help="gravitational constant (scales every potential)")
    p.add_argument("--direction", default="0,0,1", type=_rule(
        _unit_vector, lambda d: True, "a nonzero finite x,y,z triple"))
    p.add_argument("--r-from", type=_FINITE)
    p.add_argument("--r-to", type=_FINITE)
    p.add_argument("--samples", type=_AT_LEAST_1, default=50)
    p.add_argument("--n-max", type=_NONNEGATIVE, default=200)
    p.add_argument("--oracle-resolution", type=_NONNEGATIVE, default=0,
                   help="brute-force quadrature resolution (0: skip)")
    p.add_argument("--out")

    p = add_parser("rc", help="convergence-radius estimate")
    _add_mass_model(p)
    p.add_argument("--n-max", type=_NONNEGATIVE, default=400)
    p.add_argument("--directions", type=_AT_LEAST_1, default=64)
    p.add_argument("--window", help="fit window 'n_lo,n_hi'", type=_rule(
        _int_pair, lambda w: True, "n_lo,n_hi (two integers)"))
    p.add_argument("--out", help="per-direction CSV")

    p = add_parser("snowman-scan",
                   help="sweep gamma; waist radius and descent flag")
    p.add_argument("--gamma-from", type=_POSITIVE)
    p.add_argument("--gamma-to", type=_POSITIVE)
    p.add_argument("--steps", type=_AT_LEAST_1, default=25)
    p.add_argument("--bisect", action="store_true",
                   help="bisect where the descent verdict flips")
    p.add_argument("--tol", type=_POSITIVE, default=1e-8)
    p.add_argument("--out")
    ap.subcommands = sub.choices
    return ap


@functools.cache
def _parser():
    """build_parser's parser, built once per process: parsing leaves no
    state in it, so every call of main parses as on a fresh one."""
    return build_parser()


def _with_config(args, argv):
    """argv parsed again with the --config file's values as the
    subcommand's defaults, on a fresh parser: each flag on the command
    line wins, and each value but an on/off flag's goes through its
    flag's type as a command-line token would."""
    with open(args.config) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise CliError("%s: expected a JSON object of flag defaults"
                       % args.config)
    unknown = sorted(set(conf) - (set(vars(args)) - {"command"}))
    if unknown:
        raise CliError("unknown config keys: %s" % ", ".join(unknown))
    ap = build_parser()
    command = ap.subcommands[args.command]
    command.set_defaults(**{k: v if isinstance(command.get_default(k), bool)
                            else str(v) for k, v in conf.items()})
    try:
        return ap.parse_args(argv)
    except argparse.ArgumentError as exc:
        # the command line parsed once already: the value is the file's
        raise CliError("config key %s: %s" % (
            exc.argument_name.lstrip("-").replace("-", "_"), exc.message))


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        if args.config:
            args = _with_config(args, argv)
        # the command is looked up as it runs, not bound into the parser,
        # so a cmd_* function rebound on this module since the parser was
        # built is the one called
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except argparse.ArgumentError as exc:
        print("error: %s %s" % (exc.argument_name, exc.message),
              file=sys.stderr)
        return EXIT_VALIDATION
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
