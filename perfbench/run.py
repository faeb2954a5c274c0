#!/usr/bin/env python3
"""Build and run the Authenticache end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload auth_socket --seed 1 \
        --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the repository's
src/ libraries) into .bench_build/, then runs the authbench binary.
Durable state and trace files go to .bench_build/state/. Build output
goes to stderr; the benchmark's last stdout line is its JSON result.
The exit code is the benchmark's: nonzero when a build step or an
output check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("auth_socket", "heartbeat_fleet")
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    subprocess.run(
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "authbench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "authbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in 1..60")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")
    state_dir = os.path.join(build_dir, "state")
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(state_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
