"""One workload in a fresh process: set up, then time or trace operations.

Started by run.py with BLAS threads pinned to 1.  Prints one JSON object
as its last stdout line.  Modes:

  setup  generate the inputs, then call the yardstick (yardstick.py) three
         times: report the set-up time, raw and in yardsticks
  run    one warm-up operation, then untraced operations until --seconds
         have passed, each followed by one yardstick call (yardstick.py):
         report the wall time of each timed operation and of the yardstick
         after it, and the process's peak RSS over set-up and the warm-up
         operation (taken before the yardstick's arrays exist; every timed
         operation repeats the warm-up's work)
  trace  one warm-up and UNTRACED_OPS untraced operations, then one traced
         operation; report the per-layer metrics of the traced one
         (process.cpu_s is its CPU time)
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
UNTRACED_OPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="how long the run mode times operations")
    return p.parse_args(argv)


def timed_op(wl, inputs, workdir):
    """(seconds, error or None) of one operation including its output check.

    Each operation writes into a fresh directory, removed after timing, so
    no operation overwrites files the previous one left for writeback.
    """
    with tempfile.TemporaryDirectory(dir=workdir) as opdir:
        start = time.perf_counter()
        try:
            wl.check(inputs, wl.run(inputs, opdir))
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            err = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, err


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import reluhom
    from reluhom import _kernels

    if Path(reluhom.__file__).resolve().parent != SRC / "reluhom":
        sys.exit(f"reluhom was imported from {reluhom.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=args.workdir)
    inputs = wl.setup(args.seed, workdir)
    result = {"setup_s": time.monotonic() - args.spawned_at, "env": {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "using_numba": bool(_kernels.USING_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "PYTHONHASHSEED")
        },
        "seed": args.seed,
        "seed_changes": wl.seed_note,
    }}

    errors = []
    result["attempted"] = 0

    def op():
        result["attempted"] += 1
        seconds, err = timed_op(wl, inputs, workdir)
        errors.extend([err] if err else [])
        return seconds

    if args.mode == "setup":
        import yardstick

        measure_yardstick = yardstick.Yardstick()
        yard = statistics.median(measure_yardstick() for _ in range(3))
        result["setup_norm_s"] = result["setup_s"] / yard * yardstick.SECONDS
    else:
        op()  # warm-up: lazy imports and first-touch allocations are not timed
    if args.mode == "run":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        import yardstick

        measure_yardstick = yardstick.Yardstick()
        measure_yardstick()
        times, yards = [], []
        stop = time.monotonic() + args.seconds
        while not times or time.monotonic() < stop:
            times.append(op())
            yards.append(measure_yardstick())
        result["wall_s"] = times
        result["yardstick_s"] = yards
        result["wall_norm_s"] = [t / y * yardstick.SECONDS for t, y in zip(times, yards)]
    elif args.mode == "trace":
        from tracing import Tracer

        untraced = statistics.median(op() for _ in range(UNTRACED_OPS))
        cpu = time.process_time()
        with Tracer() as tracer:
            traced = op()
        cpu = time.process_time() - cpu
        layers = tracer.layer_metrics()
        layers["process.cpu_s"] = cpu
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        result["layers"] = layers
    result["errors"] = errors
    print(json.dumps(result))


if __name__ == "__main__":
    main()
