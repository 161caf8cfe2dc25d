"""routeirl benchmark: one workload per process.

    python3 bench/run.py --workload train-maxent --seed 1 --seconds 45 --trace 0

With ``--trace 0`` the last line of stdout is the end-to-end result, measured
with tracing off and scaled to a reference host speed (see speed.py); with
``--trace 1`` it is the per-layer result of a traced replay of the same
operations, in raw times.  The line before it records inputs and
environment.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1      # sequential, single-client load; at most nproc
SETUPS = 3            # set-up repetitions; setup_s uses their median
WORKLOADS = ("train-maxent", "horizon-sweep", "cli-pipeline")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "routeirl" / "__init__.py").is_file():
        print(f"error: no routeirl sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import numpy
    import scipy
    import routeirl
    import speed
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    if Path(routeirl.__file__).resolve().parent != src / "routeirl":
        print(f"error: imported routeirl from {routeirl.__file__}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_speed = speed.HostSpeed()
    setup_speed.sample(import_s)

    def timed(step) -> float:
        t = time.perf_counter()
        step()
        dt = time.perf_counter() - t
        setup_speed.sample(dt)
        return dt

    try:
        builds = [timed(wl.build)]
        warm_s = timed(wl.warm)
        builds += [timed(wl.build) for _ in range(SETUPS - 1)]
        prepare_s = timed(wl.prepare)
        setup_s = import_s + warm_s + statistics.median(builds) + prepare_s

        if args.trace:
            untraced = wl.run(seconds=args.seconds / 2)
            wl.reset()
            tracer = tracing.Tracer()
            wl.tracer = tracer
            tracer.install()
            try:
                traced = wl.run(plan=untraced.plan)
            finally:
                tracer.uninstall()
                wl.tracer = None
            wl.finish(traced)
            metrics = tracer.layer_metrics()
            metrics.update(wl.layer_extras())
            metrics["trace.overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
            units = tracing.layer_metric_units()
            tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
            runs = (untraced, traced)
            raw = None
        else:
            out = wl.run(seconds=args.seconds)
            wl.finish(out)
            metrics = wl.end_to_end(out)
            metrics["setup_s"] = setup_s * setup_speed.scale()
            raw = {**wl.end_to_end(out, normalised=False), "setup_s": setup_s}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = workloads.METRIC_UNITS
            runs = (out,)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for problem in r.problems:
            print(f"failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "routeirl": routeirl.__version__},
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "setup": {"import_s": import_s, "warm_s": warm_s, "build_s": builds,
                  "prepare_s": prepare_s},
        "operations": {k: v for r in runs for k, v in r.ops.items()},
        "run_s": [r.wall_s for r in runs],
        "ref_unit_ms": {"setup": setup_speed.unit_ms(), "run": runs[0].host.unit_ms()},
        "raw": raw,
        "inputs": wl.info,
    }
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
