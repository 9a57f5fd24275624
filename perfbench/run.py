#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload intent_heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the libraries and the benchmark in
.bench_build (or $CARGO_TARGET_DIR when set) with CMake in Release mode;
later calls rebuild only what changed. The last line of stdout is the
JSON result; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds; returns False with the log on stderr."""
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
    return False


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the load generator's self-tests")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    if args.selftest:
        return subprocess.call([os.path.join(out, "perfbench_selftest")])
    if not args.workload:
        parser.error("--workload is required")

    work_dir = os.path.join(out, "run")
    os.makedirs(work_dir, exist_ok=True)
    return subprocess.call([
        os.path.join(out, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--git-sha", git_sha(),
        "--work-dir", work_dir,
    ], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
