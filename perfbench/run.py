#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Configures and builds the perfbench CMake package (the simulator library
from src/ plus the benchmark binaries) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, runs the benchmark's own self-test, then
runs the named workload. The workload's last stdout line is the JSON
result. Build output goes to stderr. Exits nonzero, without a result, if
the build or the self-test fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = (
    "fill_mixgraph_1q",
    "read_zipf_4q",
    "cluster_blend_4shard",
    "cluster_observed_4shard",
)
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
SELFTEST_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configures (once) and builds; returns the build dir or None."""
    configure = ["cmake", "-S", source_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd[:2])} failed: {err}",
                  file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd[:2])} exited {done.returncode}",
                  file=sys.stderr)
            return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(source_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(repo_root, target, "perfbench")
    if build(source_dir, build_dir) is None:
        return 1

    try:
        selftest = subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")],
            stdout=sys.stderr, stderr=sys.stderr, timeout=SELFTEST_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: self-test did not run: {err}", file=sys.stderr)
        return 1
    if selftest.returncode != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
