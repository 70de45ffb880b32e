"""Layered benchmark of the reluhom pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: atlas-traverse, atlas-brute, torus-rips, circle-pipeline (see
BENCHMARK.json for why each was chosen).  Each run starts the workload in
fresh single-threaded processes (perfbench/worker.py) and prints, one per
line, the environment and every metric with its unit, then one JSON
object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 starts SETUP_SAMPLES set-up-only processes, then one process
that runs a warm-up operation and times operations for --seconds, and
reports the end-to-end metrics:

  wall_norm_s  the median over operations of one operation's wall time,
               from the first call into reluhom to a checked result, in
               yardsticks: divided by the wall time of the yardstick run
               right after it, times yardstick.SECONDS
  setup_s      the median over the set-up processes of the time from
               process start to inputs ready, in yardsticks alike (the
               median of three yardstick calls after set-up)
  peak_rss_mb  ru_maxrss of the timing process after set-up and its
               warm-up operation

perfbench/yardstick.py says why times are given in yardsticks.  The raw
times are printed beside them.

--trace 1 reports the per-layer metrics of one traced operation.
An operation that raises, exits non-zero or fails its output check
counts in "failed".  The run exits non-zero without a result when the
reluhom sources under src/ are missing or a worker process dies.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("atlas-traverse", "atlas-brute", "torus-rips", "circle-pipeline")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def worker(args, mode, workdir, deadline):
    """Run worker.py in a fresh process; return its JSON result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode,
        "--spawned-at", repr(spawned_at), "--workdir", workdir,
        "--seconds", repr(args.seconds),
    ]
    out = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if out.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(args, workdir, deadline):
    """Untraced run: (the timing process's result, set-up processes' results)."""
    setups = [worker(args, "setup", workdir, deadline) for _ in range(SETUP_SAMPLES)]
    return worker(args, "run", workdir, deadline), setups


def describe(name, values, unit):
    values = sorted(values)
    if len(values) == 1:
        return f"{name} = {values[0]:.6g} {unit}"
    return (
        f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}: "
        + " ".join(f"{v:.6g}" for v in values) + ")"
    )


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "reluhom" / "__init__.py").is_file():
        sys.exit(f"error: no reluhom sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        if args.trace:
            run, setups = worker(args, "trace", workdir, deadline), []
        else:
            run, setups = measure(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError, KeyError) as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(run["env"], git_commit=git_commit(), workload=args.workload)
    print("env " + json.dumps(env, sort_keys=True))
    attempted = run["attempted"]
    failed = len(run["errors"])
    for err in run["errors"]:
        print(f"failed: {err}")
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = {m["name"]: run["layers"][m["name"]] for m in spec["per_layer"]}
    else:
        times, yards = run["wall_s"], run["yardstick_s"]
        raw_setup = [r["setup_s"] for r in setups]
        for name, samples in (("operation", times), ("yardstick", yards),
                              ("set-up", raw_setup)):
            q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
            print(f"raw {name} wall time: median {median:.6g} s, quartiles {q1:.6g} and "
                  f"{q3:.6g} s, fastest {min(samples):.6g} s, over {len(samples)} runs")
        norm = run["wall_norm_s"]
        setup_norm = [r["setup_norm_s"] for r in setups]
        values = {
            "wall_norm_s": statistics.median(norm),
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        print(describe("wall_norm_s", norm, units["wall_norm_s"]))
        print(describe("setup_s", setup_norm, units["setup_s"]))
    metrics = {}
    for name, value in values.items():
        if name not in ("wall_norm_s", "setup_s"):
            print(describe(name, [value], units[name]))
        metrics[name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
