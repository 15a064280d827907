#!/usr/bin/env python3
"""Build the simulator and the benchmark binary, then run one benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig07-detailed --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --regen-oracle      # rewrite perfbench/oracle
    python3 perfbench/run.py --self-test         # unit tests + quick smoke

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; build output goes to stderr so the last line of
standard output is the run's JSON result. Every other argument is passed
to the pbs_perfbench binary unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: the simulator sources are missing next to "
              "perfbench/", file=sys.stderr)
        return 2
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        rc = run_quiet(["cmake", "-S", HERE, "-B", out])
        if rc != 0:
            if os.path.isfile(cache):
                os.remove(cache)  # configure again next time
            return rc
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    for t in targets:
        cmd += ["--target", t]
    return run_quiet(cmd)


def main(argv):
    self_test = "--self-test" in argv
    targets = ["pbs_perfbench"] + (["perfbench_test"] if self_test else [])
    rc = build(targets)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc if rc > 0 else 1
    os.makedirs(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build"), exist_ok=True)
    binary = os.path.join(build_dir(), "pbs_perfbench")
    scratch = ["--scratch-dir",
               os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
               "--oracle-dir", os.path.relpath(os.path.join(HERE, "oracle"))]
    if self_test:
        env = dict(os.environ, PERFBENCH_BIN=binary,
                   PERFBENCH_ORACLE=os.path.join(HERE, "oracle"))
        return subprocess.run([os.path.join(build_dir(), "perfbench_test")],
                              env=env).returncode
    return subprocess.run([binary] + scratch + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
