"""Benchmark command: one workload, fresh processes, CPU-timed, outputs checked.

    python3 bench/run.py --workload saturability|classification|group-law \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from `src/` as it
stands; nothing is installed or built.

`--trace 0` prints the end-to-end metrics.  The set-up time is measured in
SETUP_REPEATS processes that only build the inputs, half of them before the
measured process and half after, plus the measured process itself, and the
median is reported.  `--trace 1` prints the per-layer metrics of a traced
process, writes its spans to `bench/out/trace-<workload>-<seed>.{json,spans}`,
and runs the same seed untraced once more to report the tracing slowdown.
Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
Exit code 0 on a finished run (the checks' verdict is in `correct`),
2 on bad arguments or a tree without the library, 1 if a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("saturability", "classification", "group-law")
SETUP_REPEATS = 10
# a process is stopped only when it takes this many times its nominal CPU time
TIMEOUT_FACTOR = 10


class WorkerFailed(RuntimeError):
    pass


def load_spec():
    """BENCHMARK.json: the metric names and units printed, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_worker(args, mode, timeout, extra=()):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        *extra,
    ]
    # fixed hashing, so two processes of one seed take the same code paths
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} process exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def summary_line(out):
    return (
        f"{out['workload']} seed={out['seed']}: {out['attempted']} ops in {out['rounds']} rounds, "
        f"cpu {out['cpu_s']:.3f} s, wall {out['wall_s']:.3f} s, "
        f"tail = p{out['tail_percentile']:g}, failed {out['failed']}"
        + ("" if out["correct"] else f", WRONG: {out['problems']}")
    )


def end_to_end(args, spec, timeout):
    # half the set-up processes before the measured one and half after, so
    # their median spans the run's stretch of host time, not its first seconds
    before = SETUP_REPEATS // 2
    setups = [run_worker(args, "setup", timeout)["setup_s"] for _ in range(before)]
    out = run_worker(args, "run", timeout)
    setups.append(out["setup_s"])
    setups += [run_worker(args, "setup", timeout)["setup_s"] for _ in range(SETUP_REPEATS - before)]
    print(summary_line(out) + f", setup {' '.join(f'{s:.3f}' for s in setups)} s")
    values = dict(out, setup_s=statistics.median(setups))
    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return out, metrics


def per_layer(args, spec, timeout):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    stem = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}")
    plain = run_worker(args, "run", timeout)
    out = run_worker(args, "trace", timeout, ("--trace-out", stem))
    print(summary_line(out) + f", traced; spans in {os.path.relpath(stem, ROOT)}.spans")
    values = dict(out["per_layer"], **{"trace.slowdown": plain["ops_per_s"] / out["ops_per_s"]})
    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    out["correct"] = out["correct"] and plain["correct"]
    return out, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "padiclie", "__init__.py")):
        print(f"no library source under {os.path.join(ROOT, 'src', 'padiclie')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import ROUND_SECONDS, rounds_for

    spec = load_spec()
    nominal_s = rounds_for(args.workload, args.seconds) * ROUND_SECONDS[args.workload]
    timeout = TIMEOUT_FACTOR * nominal_s + 60
    try:
        out, metrics = (per_layer if args.trace else end_to_end)(args, spec, timeout)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
