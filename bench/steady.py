"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 bench/steady.py [--seed 1000]

Run from the repository root.  Set k (0 or 1) runs every workload in
BENCHMARK.json with the seeds seed + k*RUNS ... seed + (k+1)*RUNS - 1, one
`bench/run.py` process per run, at the run length from BENCHMARK.json.  For
each workload and end-to-end metric it prints each set's median and
quartiles (`statistics.quantiles(n=4)`), the spread (q3 - q1) / median, and
the shift |median B - median A| / median A.  All runs are saved to
`bench/out/steady-<seed>.json`.  Exit code 0 when every shift, and every
spread except set-up time's, is within the metric's bound, and every run was
correct with the same share of failed operations.
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
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in workloads}
    for k in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = args.seed + k * RUNS + i
                out = run_once(w, seed, spec["run_seconds"])
                runs[w].append({"set": k, "seed": seed, **out})
                values = " ".join(f"{n}={m['value']:.4g}" for n, m in out["metrics"].items())
                print(f"set {k} {w} seed {seed}: {values}", flush=True)

    ok = True
    print(f"\n{'workload':15} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}  verdict")
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        if len(shares) != 1 or not all(r["correct"] for r in runs[w]):
            ok = False
            print(f"{w}: failed shares {sorted(shares)}, all correct: {all(r['correct'] for r in runs[w])}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for k in range(SETS):
                values = [r["metrics"][name]["value"] for r in runs[w] if r["set"] == k]
                med, q1, q3, spread = describe(values)
                medians.append(med)
                verdict = ""
                # set-up time is a fraction of a second of CPU per process and
                # spreads over 0.25 on a shared host; its shift is still checked
                if name != "setup_s" and spread > bound:
                    verdict = f"spread > bound {bound}"
                    ok = False
                if k == SETS - 1:
                    shift = abs(med - medians[0]) / medians[0]
                    verdict += f" shift {shift:.3f} ({'ok' if shift <= bound else 'OVER'} bound {bound})"
                    ok = ok and shift <= bound
                print(f"{w:15} {name:12} {k:>3} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>7.3f}  {verdict}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1)
    print(f"\nruns saved to {os.path.relpath(path, ROOT)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
