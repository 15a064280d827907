#!/usr/bin/env python3
"""Noise-aware A/B throughput comparison of two pbs_bench binaries.

Usage:
    scripts/ab_bench.py [--rounds N] OLD NEW [pbs_bench args...]

Runs OLD and NEW alternately for N rounds (default 5; the order flips
every round so neither binary always runs first), each time with the
same pbs_bench arguments plus `--out` to a temporary file. Then prints,
per point (workload, predictor, pbs, mode):

  - the best-of-N MIPS of each binary and their ratio NEW / OLD;
  - the min-max of that point's per-round ratios.

and, over all points, the geomean of the best-of-N ratios with the
min-max of the per-round geomean ratios. A ratio above 1 means NEW is
faster. Pass `--repeats 1` (or more) through to pbs_bench to control
the repeats inside one run; best-of-N is taken across rounds on top.

Exit status: 0 on success; 1 if any run's `content_hash` differs from
the first run's (the two binaries simulated different results, or one
is not deterministic); 2 on a usage or run error.

Example (same binary on both sides, a smoke run):
    scripts/ab_bench.py --rounds 2 ./build/pbs_bench ./build/pbs_bench \\
        --quick --workloads pi --predictors tournament
"""

import json
import math
import os
import subprocess
import sys
import tempfile


def usage(msg):
    print(f"ab_bench.py: {msg}", file=sys.stderr)
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    rounds = 5
    if argv[:1] == ["--rounds"]:
        if len(argv) < 2 or not argv[1].isdigit() or int(argv[1]) < 1:
            usage("--rounds needs a positive integer")
        rounds = int(argv[1])
        argv = argv[2:]
    if len(argv) < 2:
        usage("need OLD and NEW pbs_bench binaries")
    old, new, rest = argv[0], argv[1], argv[2:]
    if "--out" in rest:
        usage("--out is set by the script")
    return rounds, old, new, rest


def run_once(binary, args, out_path):
    cmd = [binary] + args + ["--out", out_path]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"ab_bench.py: {' '.join(cmd)} exited {proc.returncode}\n"
              f"{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    with open(out_path) as f:
        doc = json.load(f)
    mips = {}
    for p in doc["points"]:
        # A --pbs grid names its ablation settings (no-stall, ...).
        key = (p["workload"], p["predictor"],
               p.get("pbs_setting", "pbs" if p["pbs"] else "-"),
               p["mode"])
        mips[key] = p["mips"]
    return doc["content_hash"], mips


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def main(argv):
    rounds, old, new, args = parse_args(argv)
    samples = {"old": [], "new": []}  # per round: {point: mips}
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "bench.json")
        for r in range(rounds):
            order = [("old", old), ("new", new)]
            if r % 2:
                order.reverse()
            for side, binary in order:
                h, mips = run_once(binary, args, out)
                hashes.append((side, r, h))
                samples[side].append(mips)
            print(f"round {r + 1}/{rounds} done", file=sys.stderr)

    ref = hashes[0][2]
    bad = [(s, r, h) for s, r, h in hashes if h != ref]
    if bad:
        for s, r, h in bad:
            print(f"content_hash mismatch: {s} round {r + 1}: {h} != "
                  f"{ref}")
        return 1

    points = sorted(samples["old"][0])
    if any(sorted(m) != points for m in samples["old"] + samples["new"]):
        print("ab_bench.py: runs report different point sets",
              file=sys.stderr)
        return 2

    print(f"{'point':44s} {'old':>8s} {'new':>8s} {'ratio':>6s}  "
          f"per-round min-max")
    best_ratios = []
    for p in points:
        best_old = max(m[p] for m in samples["old"])
        best_new = max(m[p] for m in samples["new"])
        ratio = best_new / best_old
        best_ratios.append(ratio)
        per_round = [n[p] / o[p]
                     for o, n in zip(samples["old"], samples["new"])]
        name = "/".join(p)
        print(f"{name:44s} {best_old:8.2f} {best_new:8.2f} {ratio:6.3f}  "
              f"{min(per_round):.3f}-{max(per_round):.3f}")

    round_geo = [geomean([n[p] / o[p] for p in points])
                 for o, n in zip(samples["old"], samples["new"])]
    print(f"geomean best-of-{rounds} ratio {geomean(best_ratios):.3f} "
          f"(per-round geomean {min(round_geo):.3f}-{max(round_geo):.3f},"
          f" {len(points)} points); content_hash {ref} on all "
          f"{len(hashes)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
