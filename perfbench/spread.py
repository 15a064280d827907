#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload fig07-detailed --seeds 1-10
    python3 perfbench/spread.py --workload zoo-mpki --seeds 1,5,9 \\
        --seconds 20 --trace 0 --json out.json

For every metric it prints the median, the first and third quartile
(statistics.quantiles(values, n=4)) and the spread: the interquartile
distance as a share of the median. With --trace 0 it also flags every
end-to-end metric whose spread exceeds a third of its bound in
BENCHMARK.json. Runs are made one after another, never in parallel.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: run failed ({proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write the per-run results here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        r = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, "result": r})
        print(f"seed {seed}: correct={r['correct']} "
              f"failed={r['failed']}/{r['attempted']}", flush=True)

    names = list(runs[0]["result"]["metrics"])
    print(f"\n{args.workload}: {len(runs)} runs, {seconds} s each")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    steady = True
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                      else (vals[0],) * 3)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if args.trace == 0 and bound is not None and name != "setup_s" \
                and spread > bound / 3:
            flag = "  > bound/3"
            steady = False
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
