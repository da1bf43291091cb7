#!/usr/bin/env python3
"""Run one e2ebench workload: build, generate the input, measure, report.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the root of a greedcolor checkout. The benchmark and the
library are built from source into .bench_build/ (or $CARGO_TARGET_DIR
when set); inputs and traces are written there too, and the input is
deleted when the run ends. The last line on stdout is the JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then build incrementally; build output goes to stderr."""
    cmake_dir = os.path.join(build_dir, "cmake")
    # build_info.hpp is written at the end of a successful configure.
    if not os.path.exists(os.path.join(cmake_dir, "build_info.hpp")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir, *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "gcol_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="check that the oracle rejects planted faults")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([binary, "self-test"]).returncode

    work = os.path.join(build_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    mtx = os.path.join(work, "input.mtx")
    try:
        # Input generation runs in its own process, before the measured one
        # starts, so it never counts toward set-up time.
        gen = subprocess.run([binary, "gen", "--workload", args.workload,
                              "--seed", str(args.seed), "--out", mtx])
        if gen.returncode != 0:
            return 2
        cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--input", mtx]
        if args.trace == "1":
            cmd += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
        run = subprocess.run(cmd + ["--launch-ns", str(time.monotonic_ns())],
                             stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"e2ebench: measuring process exited with {run.returncode}",
              file=sys.stderr)
        return 2
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
