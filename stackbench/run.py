#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark.

    python3 stackbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is a CMake project of its own
(stackbench/CMakeLists.txt) that compiles the library sources in src/; it
is configured and built on first use into $CARGO_TARGET_DIR (default
.bench_build) under stackbench/, then its statistics self-test runs, then
the benchmark itself. The last line printed is the JSON result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "stackbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", os.path.join(ROOT, "stackbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
        ]
        for cmd in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("build failed", file=sys.stderr)
        return 1
    test = subprocess.run([os.path.join(out, "stackbench_stats_test"),
                           "--gtest_brief=1"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode:
        print("statistics self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "stackbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work-%d" % os.getpid()),
           "--out-dir", os.path.join(out, "results")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode or not isinstance(result, dict):
        sys.stderr.write(stdout)
        print("benchmark failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
