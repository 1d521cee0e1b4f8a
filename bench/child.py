"""One workload process: set-up, warm-up, timed rounds, result as one JSON line.

Started by run.py, which pins the BLAS thread count and puts ``src`` on the
import path. The clock starts before numpy, scipy and ctoqw are imported, so
``setup_s`` covers the imports, input construction and the warm-up pass: all
that happens before the first timed operation.

With ``--trace 0`` rounds run untraced until the time is spent and each
round's wall time is the summed duration of its operations; at least two
rounds run. With
``--trace 1`` every round runs twice on the same inputs, untraced then
traced; the per-layer metrics come from the first traced round, whose inputs
depend only on the seed, so its counters repeat exactly.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def merge(total, rec):
    for kind, n in rec.attempted.items():
        total["attempted"][kind] = total["attempted"].get(kind, 0) + n
    for kind, n in rec.failed.items():
        total["failed"][kind] = total["failed"].get(kind, 0) + n
    for name, err in rec.errors.items():
        total["errors"][name] = max(total["errors"].get(name, 0.0), err)
    total["messages"].extend(rec.messages[: 20 - len(total["messages"])])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write traced spans here (JSON lines)")
    args = ap.parse_args()

    clock = time.perf_counter
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    wl.warmup(workloads.Recorder(clock))
    setup_s = clock() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    total = {"attempted": {}, "failed": {}, "errors": {}, "messages": []}
    walls, traced_walls = [], []
    first_trace = None
    begin = clock()
    r = 0
    while True:
        inputs = wl.round_inputs(r)
        rec = workloads.Recorder(clock)
        wl.run(inputs, rec)
        walls.append(rec.busy)
        merge(total, rec)
        if args.trace:
            tr = tracing.Tracer()
            rec_t = workloads.Recorder(clock)
            tr.install()
            try:
                wl.run(inputs, rec_t)
            finally:
                tr.uninstall()
            traced_walls.append(rec_t.busy)
            merge(total, rec_t)
            if first_trace is None:
                first_trace = (tr, rec_t)
                if args.spans:
                    tr.write(args.spans, tr.spans[0][1] if tr.spans else 0.0)
        if r == 0:
            # Peak RSS after the first round: a fixed amount of work, so the
            # figure does not depend on how many rounds fit in the time.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        r += 1
        elapsed = clock() - begin
        # Stop when another round would end more than half a round past the
        # time, so the window stays close to --seconds; but time at least two
        # rounds untraced, so one slow round does not cut a long-round run short.
        if r >= (1 if args.trace else 2) and elapsed + 0.5 * elapsed / r > args.seconds:
            break

    attempted = sum(total["attempted"].values())
    failed = sum(total["failed"].values())
    doc = {
        "setup_s": setup_s,
        "rounds": r,
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "by_kind": {k: [total["attempted"][k], total["failed"].get(k, 0)]
                    for k in sorted(total["attempted"])},
        "unexpected_failures": sorted(set(total["failed"]) - wl.known_defects),
        "messages": total["messages"],
        "peak_rss_mb": peak_kib / 1024.0,
        "blas_threads": blas_threads(),
    }
    if args.trace:
        tr, rec_t = first_trace
        overhead = statistics.median(t - u for t, u in zip(traced_walls, walls))
        layer = tracing.layer_metrics(tr, traced_walls[0], overhead, rec_t.counts,
                                      total["errors"])
        doc["layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
