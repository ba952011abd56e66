"""Seeded input files for the benchmark workloads.

The program under test only ever reads these files.  Writers use the
documented text formats directly (SPMA lines ``cx cy cz a kind param...``,
point-mass lines ``x y z m``, grid files ``nx ny nz h ox oy oz`` followed
by values with x fastest), so generating inputs does not run gravharm.
Writers return the facts the correctness gates need.
"""

import numpy as np

FIELD_COMPONENTS = 1000
FIELD_CENTER_BALL = 0.8
FIELD_RADII = (0.05, 0.2)
FIELD_TAPER_FRACTION = 0.1


def _fmt(x):
    return format(float(x), ".17g")


def write_field_spma(path, seed, count=FIELD_COMPONENTS):
    """Random SPMA: centers uniform in the 0.8-ball, radii in [0.05, 0.2],
    profiles cycling quadratic bump / cosine bump / constant taper."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    centers = v * (FIELD_CENTER_BALL * rng.uniform(size=count) ** (1 / 3))[:, None]
    radii = rng.uniform(*FIELD_RADII, size=count)
    amps = rng.uniform(0.5, 2.0, size=count)
    with open(path, "w") as fh:
        for i, (c, a, amp) in enumerate(zip(centers, radii, amps)):
            head = " ".join(_fmt(t) for t in (*c, a))
            if i % 3 == 0:
                tail = "quadratic_bump " + _fmt(amp)
            elif i % 3 == 1:
                tail = "cosine_bump " + _fmt(amp)
            else:
                knots = (0.0, a * (1 - FIELD_TAPER_FRACTION), a)
                tail = "table " + " ".join(_fmt(t) for t in
                                           (*knots, amp, amp, 0.0))
            fh.write("%s %s\n" % (head, tail))
    norms = np.linalg.norm(centers, axis=1)
    lo, hi = (centers - radii[:, None]).min(0), (centers + radii[:, None]).max(0)
    direction = rng.normal(size=3)
    return {"max_center_norm": float(norms.max()),
            "support_radius": float(np.max(norms + radii)),
            "box_width": float(np.max(hi - lo)),
            "ray": direction / np.linalg.norm(direction)}


def write_single_mass(path, seed, height=0.8):
    """One point mass on the z axis at `height`; its mass is seeded."""
    mass = np.random.default_rng(seed).uniform(0.5, 2.0)
    with open(path, "w") as fh:
        fh.write("0 0 %s %s\n" % (_fmt(height), _fmt(mass)))
    return {"rc": height}


def write_ball_grid(path, n, graded):
    """Unit ball on an n^3 grid over [-1, 1]^3: constant 1, or 1.5 - r^2."""
    h = 2.0 / (n - 1)
    ax = -1.0 + h * np.arange(n)
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = xx**2 + yy**2 + zz**2
    vals = np.where(r2 <= 1.0, 1.5 - r2 if graded else 1.0, 0.0)
    flat = np.ravel(vals, order="F")
    with open(path, "w") as fh:
        fh.write("%d %d %d %s -1 -1 -1\n" % (n, n, n, _fmt(h)))
        for i in range(0, flat.size, 8):
            fh.write(" ".join(_fmt(t) for t in flat[i:i + 8]) + "\n")
