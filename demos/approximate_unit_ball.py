"""Smoothed-array approximation of the constant unit ball.

Builds the greedy spherical filling of a gridded unit-ball density,
dresses it as a smoothed point-mass array (plateau components on the
filling balls plus a fitted low-amplitude covering blanket), and prints
the verification report: metric distance, set distances, Brillouin
radii, general position, and the filling conditions.

Run:  python3 demos/approximate_unit_ball.py [resolution]
"""

import sys
import time

import numpy as np

from gravharm import (FillingParams, GridDensity, coeffs_from_point_masses,
                      estimate_rc, pointmass_brillouin_radius,
                      spma_approximate)


def unit_ball_grid(n):
    h = 2.0 / (n - 1)
    ax = -1.0 + h * np.arange(n)
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
    return GridDensity((-1.0, -1.0, -1.0), h,
                       (xx**2 + yy**2 + zz**2 <= 1.0).astype(float))


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    budget = 0.2 if n >= 48 else 0.5
    g = unit_ball_grid(n)
    print("unit ball at resolution %d, delta = eps = %.2f" % (n, budget))
    t0 = time.time()
    res = spma_approximate(g, FillingParams(delta=budget, eps=budget))
    s = res.report["summary"]
    print("built %d components (%d filling + %d covering) in %.1f s"
          % (s["components"], s["filling_balls"], s["covering_balls"],
             time.time() - t0))
    print("  mu1 distance        %.4f  (budget %.2f)" % (s["mu1"], budget))
    print("  boundary Hausdorff  %.4f" % s["boundary_hausdorff"])
    print("  set distance        %.4f" % s["set_distance"])
    print("  R(f) = %.4f   R(lambda) = %.4f" % (s["R_f"], s["R_lambda"]))
    fit = res.report["background_fit"]
    print("  background fit      %d steps, relative residual %.4f"
          % (fit["iterations"], fit["relative_residual"]))
    for key in ("p1", "p2", "p3", "p4", "p5", "p6", "p7",
                "extremal", "a1", "a2", "a7", "a8"):
        print("  %-9s %s" % (key, "pass" if res.report[key]["pass"]
                             else "FAIL " + str(res.report[key])))

    pm = res.spma.as_point_masses()
    c = coeffs_from_point_masses(pm, pointmass_brillouin_radius(pm), 120)
    rc = estimate_rc(c, k=16)
    print("equivalent point-mass array: Rc estimate %.4f "
          "(R(lambda) - eps = %.4f)" % (rc, s["R_lambda"] - budget))


if __name__ == "__main__":
    main()
