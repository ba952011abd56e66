"""Which gravharm functions the traced run wraps, and the work it counts.

Per-layer metrics are ``<module>.<function>.{calls,self_s,total_s}`` for
every function in LAYERS, plus the work counts below.  Counts are
computed from each call's arguments or result at the call boundary.
"""

import importlib
import inspect

import numpy as np

from tracer import Target

PACKAGE = "gravharm"

LAYERS = {
    "she": ["coeffs_from_point_masses", "direction_coefficient_table",
            "evaluate_partial_sum", "coeffs_from_sphere_quadrature",
            "SHECoefficients.save"],
    "convergence": ["estimate_rc", "estimate_rc_reports",
                    "epsilon_descent_check"],
    "potential": ["potential_point_masses", "potential_spma",
                  "potential_oracle"],
    "density": ["evaluate_on_grid", "lp_metric", "load_spma", "save_spma",
                "GridDensity.load", "SPMA.__init__", "SPMA.as_point_masses",
                "SPMA.support_region"],
    "geometry": ["general_position_perturb", "hausdorff_distance",
                 "brillouin_radius", "pointmass_brillouin_radius"],
    "construct": ["spherical_filling", "spma_approximate", "build_snowman",
                  "snowman_descends_to_topography"],
    "cli": ["cmd_coeffs", "cmd_descent", "cmd_rc", "cmd_potential",
            "cmd_approximate"],
}

COUNT_UNITS = {
    "she.recurrence_terms": "count",
    "convergence.conclusive_ratio": "frac",
    "potential.pm_pairs": "count",
    "potential.spma_pairs": "count",
    "potential.oracle_fine_nodes": "count",
    "density.components_scattered": "count",
    "construct.filling_balls": "count",
    "construct.covering_balls": "count",
    "construct.components": "count",
    "tracer.overhead_frac": "frac",
}
DERIVED = ("convergence.conclusive_ratio", "tracer.overhead_frac")


def _triangle(n_max):
    return (int(n_max) + 1) * (int(n_max) + 2) // 2


def _npoints(x):
    return 1 if np.ndim(x) == 1 else len(x)


def _counter(function, fn):
    """Adapt fn(counts, arguments, result) to the tracer's count hook,
    binding the call's arguments to `function`'s parameter names."""
    sig = inspect.signature(function)

    def count(counts, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        fn(counts, bound.arguments, result)
    return count


def _recurrence_terms(vector_len):
    def count(counts, a, result):
        counts["she.recurrence_terms"] += _triangle(a["n_max"]) * vector_len(a)
    return count


def _direction_terms(counts, a, result):
    counts["she.recurrence_terms"] += (_triangle(a["c"].n_max)
                                       * np.size(a["thetas"]))


def _fit_outcome(counts, a, result):
    counts["convergence.directions"] += 1
    counts["convergence.conclusive"] += result.classification != "inconclusive"


def _pm_pairs(counts, a, result):
    counts["potential.pm_pairs"] += len(a["masses"]) * _npoints(a["x"])


def _spma_pairs(counts, a, result):
    counts["potential.spma_pairs"] += len(a["spma"].components) * _npoints(a["x"])


def _oracle_nodes(counts, a, result):
    counts["potential.oracle_fine_nodes"] += (int(a["resolution"])
                                              * int(a["subcell"])) ** 3


def _scattered(counts, a, result):
    counts["density.components_scattered"] += len(
        getattr(a["density"], "components", ()))


def _construction(counts, a, result):
    s = result.report["summary"]
    for key in ("filling_balls", "covering_balls", "components"):
        counts["construct." + key] += int(s[key])


COUNTERS = {
    ("she", "coeffs_from_point_masses"):
        _recurrence_terms(lambda a: len(a["masses"])),
    ("she", "coeffs_from_sphere_quadrature"):
        # Gauss-Legendre nodes: n_max + oversample + 1
        _recurrence_terms(lambda a: int(a["n_max"]) + int(a["oversample"]) + 1),
    ("she", "direction_coefficient_table"): _direction_terms,
    ("potential", "potential_point_masses"): _pm_pairs,
    ("potential", "potential_spma"): _spma_pairs,
    ("potential", "potential_oracle"): _oracle_nodes,
    ("density", "evaluate_on_grid"): _scattered,
    ("construct", "spma_approximate"): _construction,
}


def targets():
    """Tracer targets for every function in LAYERS, with their counters.

    Imports the gravharm modules.  The private per-direction fit is wrapped
    for counting only (no span), so that the conclusive-direction ratio
    covers every root-test entry point.
    """
    out = []
    for short, names in LAYERS.items():
        module = importlib.import_module("%s.%s" % (PACKAGE, short))
        for qualname in names:
            fn = COUNTERS.get((short, qualname))
            count = _counter(getattr(module, qualname), fn) if fn else None
            out.append(Target(module.__name__, qualname, count))
    conv = importlib.import_module(PACKAGE + ".convergence")
    out.append(Target(conv.__name__, "_fit_report",
                      _counter(conv._fit_report, _fit_outcome), span=False))
    return out


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for short, names in LAYERS.items():
        for qualname in names:
            base = "%s.%s" % (short, qualname)
            units[base + ".calls"] = "count"
            units[base + ".self_s"] = "s"
            units[base + ".total_s"] = "s"
    units.update(COUNT_UNITS)
    return units


def metrics(tracer):
    """Per-layer values of one traced pass (overhead_frac is added later)."""
    table = tracer.summary()
    out = {}
    for short, names in LAYERS.items():
        for qualname in names:
            base = "%s.%s" % (short, qualname)
            calls, total, self_s = table.get(base, (0, 0.0, 0.0))
            out[base + ".calls"] = calls
            out[base + ".self_s"] = self_s
            out[base + ".total_s"] = total
    c = tracer.counts
    for name in COUNT_UNITS:
        if name not in DERIVED:
            out[name] = c[name]
    attempted = c["convergence.directions"]
    out["convergence.conclusive_ratio"] = (
        c["convergence.conclusive"] / attempted if attempted else 0.0)
    return out
