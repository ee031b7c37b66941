#!/usr/bin/env python3
"""Builds the fleet benchmark from source and runs one workload.

    python3 fleetbench/run.py --workload mall-hotspot --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR (default .bench_build) and is reused by later runs. The
benchmark's own progress goes to stderr; the last stdout line is its JSON
result. The exit code is the benchmark's: non-zero on a build failure, a
wrong answer or a serving error, with no result printed in the first case.
See fleetbench/README.md for the workloads and metrics.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds fleet_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "service.h")):
        print("fleetbench: no library sources at %s/src" % ROOT, file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "fleet_bench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("fleetbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "fleet_bench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # fleet_bench itself rejects an unknown workload name (exit code 2).
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2

    work = os.path.join(build_dir, "work-%d" % os.getpid())
    traces = os.path.join(build_dir, "traces")
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        # Keep the traced run's spans; drop snapshots and the manifest.
        spans = glob.glob(os.path.join(work, "spans-*.jsonl"))
        if spans:
            os.makedirs(traces, exist_ok=True)
            for path in spans:
                shutil.move(path, os.path.join(traces, os.path.basename(path)))
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
