"""One workload in one fresh process: build the inputs, run the timed phase, check.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode setup|run|trace

`setup` stops after building the inputs; `run` times every operation;
`trace` does the same with the span tracer active during the timed phase and
writes the trace under `--trace-out`, which trace mode requires.  The last line of standard output is
one JSON object with the measurements.  `bench/run.py` starts this script;
run it directly only to look at one process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def tail_percentile(times_sorted):
    """The highest whole percentile with at least ten samples beyond it (nearest rank).

    Whole percentiles only: at 10 000 operations p99.9 would rest on ten
    samples, which transient host slowdowns decide more than the program.
    """
    n = len(times_sorted)
    for q in range(99, 49, -1):
        rank = (q * n + 99) // 100  # ceil(q n / 100), 1-based
        if n - rank >= 10:
            return q, times_sorted[rank - 1]
    raise ValueError(f"{n} operations are too few for a tail percentile")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-out", help="file stem for the trace (trace mode)")
    args = ap.parse_args(argv)
    if args.mode == "trace" and not args.trace_out:
        ap.error("--mode trace needs --trace-out")

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # before the inputs exist, so bound methods are the wrappers

    import workloads

    build = workloads.WORKLOADS[args.workload]
    rounds = workloads.rounds_for(args.workload, args.seconds)
    plan = build(random.Random(args.seed), rounds)
    calls = [(fn, a) for fn, a, _ in plan.ops]
    setup_s = time.process_time()  # interpreter start, imports and inputs
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    n = len(calls)
    results = [None] * n
    times = [0.0] * n
    errors = []
    clock = time.process_time
    wall0 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    start = clock()
    for i, (fn, a) in enumerate(calls):
        t0 = clock()
        try:
            results[i] = fn(*a)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"op {i} {getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
        times[i] = clock() - t0
    cpu_s = clock() - start
    if tracer is not None:
        tracer.active = False
    wall_s = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = plan.check(results)
    completed = n - len(errors)
    ordered = sorted(times)
    tail_pct, tail_s = tail_percentile(ordered)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "attempted": n,
        "failed": len(errors),
        "correct": not problems,
        "problems": problems[:5],
        "errors": errors[:5],
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "ops_per_s": completed / cpu_s,
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        tracer.write(args.trace_out, {k: out[k] for k in ("workload", "seed", "rounds", "cpu_s")})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
