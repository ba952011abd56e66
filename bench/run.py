"""gravharm benchmark: seeded workloads through the CLI, timed and gated.

Run from the root of a checkout:

    python3 bench/run.py --workload expansion --seed 1 --seconds 30 --trace 0

The run writes its inputs from the seed into .bench_work/, measures
set-up in fresh interpreters, then repeats the workload's jobs for about
--seconds (always at least once) and checks every job's output.  With
--trace 1 each untraced pass is followed by a traced one that wraps the
public functions of every gravharm module from outside.

End-to-end metrics (--trace 0): setup_s, the median time to import
gravharm and the scipy modules it imports lazily; wall_s, one pass of
the workload's jobs with each job at its median over the run's passes;
peak_rss_mb; tol_used, the largest share of its tolerance that any
accuracy figure of the run used.  Per-layer metrics (--trace 1) are
listed in layers.py.

Human-readable lines come first: machine info, per-pass job times, and
a table of every metric with its unit, including per-command times,
accuracy figures and the failed fraction.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAZY_IMPORTS = ("scipy.signal",)    # imported inside gravharm functions
SETUP_REPEATS = 3
SETUP_CHILD = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gravharm.cli
for name in sys.argv[2:]:
    __import__(name)
print(time.perf_counter() - t)
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "tol_used": "frac"}


def measure_setup(src):
    """Median seconds to import gravharm.cli and LAZY_IMPORTS, fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, src, *LAZY_IMPORTS],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples), samples


def machine_info(root):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": commit}


def run_pass(jobs, tracer=None):
    """Run every job once: ({job: seconds}, {job: output}, {job: error})."""
    times, outputs, errors = {}, {}, {}
    for job in jobs:
        if tracer is not None:
            tracer.trace_id = job.name
        t0 = time.perf_counter()
        try:
            outputs[job.name] = job.run()
        except Exception:
            errors[job.name] = traceback.format_exc(limit=3).strip()
        times[job.name] = time.perf_counter() - t0
    return times, outputs, errors


def measure(jobs, seconds, trace, targets):
    """Repeat the jobs for about `seconds` (at least once); with `trace`,
    each untraced pass is followed by a traced one.

    Returns (untraced passes, traced passes, figures, failures, attempted);
    a pass is (times, tracer or None).
    """
    import jobs as jobs_module
    from tracer import Tracer

    untraced, traced, figures, failures, attempted = [], [], {}, [], 0
    start = time.perf_counter()
    while True:
        for tracer in [None] + ([Tracer(targets())] if trace else []):
            if tracer is None:
                times, outputs, errors = run_pass(jobs)
            else:
                with tracer:
                    times, outputs, errors = run_pass(jobs, tracer)
            jobs_module.check_pass(jobs, outputs, errors, figures)
            attempted += len(jobs)
            failures += ["%s: %s" % kv for kv in errors.items()]
            (traced if tracer else untraced).append((times, tracer))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(untraced)) > seconds:
            return untraced, traced, figures, failures, attempted


def job_medians(passes):
    """Each job's median time over the passes.

    On a shared machine other tenants slow every job by up to 2x, for
    seconds to minutes at a time; a per-job median over many short
    repetitions keeps one slow stretch from setting the run's figure.
    """
    return {name: statistics.median(times[name] for times, _ in passes)
            for name in passes[0][0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["expansion", "field", "approximate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gravharm", "__init__.py")):
        print("error: %s holds no src/gravharm; run from the root of a "
              "gravharm checkout" % root, file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy is first imported: pin it
    # before importing anything that imports numpy
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, src)
    import jobs as jobs_module
    import layers

    work = os.path.join(root, ".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        jobs = jobs_module.WORKLOADS[args.workload](work, args.seed)
        setup_s, setup_samples = measure_setup(src)
        # warm-up: the lazy imports must not land in the first timed job
        import gravharm.cli
        for name in LAZY_IMPORTS:
            __import__(name)
        if not os.path.abspath(gravharm.__file__).startswith(src + os.sep):
            print("error: imported gravharm from %s, not %s"
                  % (gravharm.__file__, src), file=sys.stderr)
            return 2
        info = machine_info(root)
        untraced, traced, figures, failures, attempted = measure(
            jobs, args.seconds, args.trace, layers.targets)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    medians = job_medians(untraced)
    used = [f.used for figs in figures.values() for f in figs]
    end_to_end = {"setup_s": setup_s, "wall_s": sum(medians.values()),
                  "peak_rss_mb": peak_rss_mb,
                  "tol_used": max(used) if used else 0.0}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in end_to_end.items()}
    if args.trace:
        per_pass = [layers.metrics(tracer) for _, tracer in traced]
        values = {k: statistics.median(m[k] for m in per_pass)
                  for k in per_pass[0]}
        values["tracer.overhead_frac"] = (
            sum(job_medians(traced).values()) / end_to_end["wall_s"] - 1)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in layers.metric_units().items()}

    print("# workload=%s seed=%d seconds=%g trace=%d passes=%d"
          % (args.workload, args.seed, args.seconds, args.trace, len(untraced)))
    print("# machine: " + json.dumps(info, sort_keys=True))
    print("# setup_s samples: " + " ".join("%.4f" % s for s in setup_samples))
    for i, (times, _) in enumerate(untraced, 1):
        print("# pass %d: " % i + ", ".join("%s %.3f s" % kv
                                            for kv in times.items()))
    for f in failures:
        print("FAIL " + f.replace("\n", "\n     "))
    rows = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    for j in jobs:
        rows[j.metric] = (rows.get(j.metric, (0.0,))[0] + medians[j.name], "s")
    rows.update((k, (max(f.value for f in figs), "1"))
                for k, figs in sorted(figures.items()))
    rows["fail_frac"] = (len(failures) / attempted, "frac")
    if args.trace:
        rows.update((k, (m["value"], m["unit"])) for k, m in metrics.items())
    width = max(len(k) for k in rows)
    for name, (value, unit) in rows.items():
        print("%-*s %-14.6g %s" % (width, name, value, unit))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
