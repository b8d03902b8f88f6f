#!/usr/bin/env python3
"""Builds snapbench from source and runs one workload.

Usage (from the repository root):
  python3 snapbench/run.py --workload snap_churn --seed 1 --seconds 20 --trace 0
  python3 snapbench/run.py --self-test

The build goes to .bench_build/snapbench under the current directory. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "snapbench")


def build():
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "snapbench", "-j", "4"],
    ):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("snapbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.exists(os.path.join(HERE, "..", "src", "core", "ftl.h")):
        sys.exit("snapbench: library sources (src/) not found next to snapbench/")
    build()
    args = ["--self_test"] if sys.argv[1:] == ["--self-test"] else sys.argv[1:]
    sys.stdout.flush()
    result = subprocess.run([os.path.join(BUILD, "snapbench")] + args)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
