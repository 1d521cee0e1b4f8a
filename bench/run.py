"""Benchmark launcher: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload drift_mc --seed 1 --seconds 20 --trace 0

The workload runs in a child process (child.py) with the BLAS thread count
pinned, ``src`` on the import path and nothing installed. Set-up is measured
in that process and in SETUP_SAMPLES - 1 further processes that only set up;
``setup_s`` is their median. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under ``--trace 0`` and its
per-layer metrics under ``--trace 1``. The line before it is the run record
(machine, library builds, seed, per-kind counts). The exit code is nonzero,
and no result is printed, when the checkout lacks the package or a child
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
# One BLAS thread: the steadiest timing on a shared machine, and a plain
# single-threaded baseline for any later parallel claim.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150


def _child(args, extra, env):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _library_record():
    import numpy
    import scipy

    try:
        build = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: {f: build[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in build}
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_lapack": blas}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "ctoqw", "__init__.py")):
        print("error: no src/ctoqw package in this checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("error: no BENCHMARK.json in this checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"

    try:
        setups = [_child(args, ["--setup-only"], env)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        spans = None
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        res = _child(args, ["--spans", spans] if spans else [], env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    if args.trace:
        metrics = res["layer"]
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.fmean(res["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "fail_ratio": {"value": res["failed"] / res["attempted"], "unit": "ratio"},
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 1

    cpus = os.cpu_count()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": cpus,
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus,
        "blas_threads_pinned": BLAS_THREADS, "blas_threads_seen": res["blas_threads"],
        **_library_record(),
        "rounds": res["rounds"], "walls_s": res["walls"], "setup_samples_s": setups,
        "by_kind": res["by_kind"], "messages": res["messages"], "spans": spans,
    }
    print("run-record " + json.dumps(record))
    print(json.dumps({
        "correct": not res["unexpected_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: metrics[k] for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
