#!/usr/bin/env python3
"""Builds the tegrec benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is batch_boiler, batch_kiln or stream_drive_ckpt, or `all` to run the
three in turn.  The first call configures and builds a Release tree in
.bench_build/ (later calls only rebuild what changed).  The benchmark's
output passes through unchanged; its last line is one JSON object with the
keys correct, attempted, failed and metrics.  Build output goes to stderr.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["batch_boiler", "batch_kiln", "stream_drive_ckpt"]
BUILD_DIR = ".bench_build"
# One workload run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one tree
        configured = any(
            os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("build.ninja", "Makefile")
        )
        if not configured:
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                + generator,
                stdout=sys.stderr,
                check=True,
            )
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
            stdout=sys.stderr,
            check=True,
        )
    return os.path.join(BUILD_DIR, "perfbench")


def run_one(binary, workload, args):
    """Runs one workload, echoing its output; returns (exit code, result)."""
    proc = subprocess.run(
        [
            binary,
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--digests", os.path.join(HERE, "digests.txt"),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1, None
    return 0, (lines[:-1], json.loads(lines[-1]), lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    try:
        return run_workloads(binary, args)
    except subprocess.TimeoutExpired:
        print(f"perfbench: a workload ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def run_workloads(binary, args):
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args)
        if result is not None:
            print("\n".join(result[0] + [result[2]]))
        return code

    # All workloads, each in its own process; the summary keys every
    # metric by workload.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, result = run_one(binary, workload, args)
        if result is None:
            return code
        print("\n".join(result[0]))
        one = result[1]
        summary["correct"] = summary["correct"] and one["correct"]
        summary["attempted"] += one["attempted"]
        summary["failed"] += one["failed"]
        for name, metric in one["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
