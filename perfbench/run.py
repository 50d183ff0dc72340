#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload hot_shared --seed 1 --seconds 15 --trace 0

Run it from the repository root.  The first run configures and builds src/
and the driver into .bench_build/perfbench; later runs rebuild only what
changed.  Build output goes to stderr.  The driver's last stdout line is the
JSON result, and the exit code is the driver's: 0 only when every replay
verified.  Everything a run writes stays under .bench_build/.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
TMP_DIR = os.path.join(".bench_build", "tmp")
WORKLOADS = ("hot_shared", "private_keys", "rpc_closed")

# The driver starts no cycle after --seconds; this bounds a run that hangs.
RUN_TIMEOUT_S = 170


def build(env):
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR, *generator],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   stdout=sys.stderr, env=env, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload size (self-test: 0.02)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "core", "session.h")):
        sys.exit("perfbench: no source tree here; run from the repository root")
    os.makedirs(TMP_DIR, exist_ok=True)
    # The compiler and the driver keep their temporary files in the checkout.
    env = dict(os.environ, TMPDIR=os.path.abspath(TMP_DIR))
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", WORK_DIR]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
