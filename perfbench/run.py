#!/usr/bin/env python3
"""Builds and runs the LinkBench performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built from the repository sources (../src) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
an up-to-date build is a no-op. Build output goes to stderr. The
binary's last stdout line is the JSON result; see README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        fail("repository sources not found at " + SRC)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "linkbench_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail("benchmark exited with code %d" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
