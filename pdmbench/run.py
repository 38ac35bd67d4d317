#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout's sources and runs one workload.

    python3 pdmbench/run.py --workload wire-pipelined --seed 1 --seconds 10 --trace 0

The harness and the library are built under $CARGO_TARGET_DIR (default
.bench_build) in the checkout root. Build output goes to stderr, so the last
line of stdout is the harness's result object. Exits non-zero when the build
fails or when any output check of the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire-pipelined", "broker-parallel", "fleet-cold")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path or None."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))

    def attempt():
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
        make = ["cmake", "--build", build_dir, "--target", "pdmbench", "-j", jobs]
        return subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    if not attempt():
        # A cache configured from another source tree cannot be reused.
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            return None
        shutil.rmtree(build_dir, ignore_errors=True)
        if not attempt():
            return None
    return os.path.join(build_dir, "pdmbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", default="",
                        choices=("", "price", "reserve", "tally", "twin"),
                        help="self-test only: corrupt one output check's input")
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(target, "pdmbench"))
    if binary is None:
        print("pdmbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(target, "pdmbench-out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out_dir", out_dir]
    if args.perturb:
        command += ["--perturb", args.perturb]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("pdmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
