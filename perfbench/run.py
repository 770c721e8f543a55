#!/usr/bin/env python3
"""Entry point of the bounds-contract benchmark.

Builds the benchmark (perfbench/CMakeLists.txt: the sciborq library from
src/ plus the benchmark program in perfbench/src/) in Release under
.bench_build/, then runs one workload:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

The last line of stdout is the JSON result. Build output goes to stderr.
Extra flags --smoke and --corrupt-oracle are for perfbench/smoke_test.py.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Every run must end well inside three minutes, the build excepted.
RUN_TIMEOUT_S = 170


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def source_id():
    """The git sha when the checkout has one, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git-" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore", "escalate", "ingest", "fanout"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "api", "engine.h")):
        print("perfbench: no sciborq sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    build_dir = os.path.join(build_root(), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(build_root(), "work", args.workload)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--source-id", source_id()]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
