#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--instance-seed N]
  python3 perfbench/run.py --self-test

The puffer libraries, pufferd and the perfbench binary are built with
CMake into .bench_build/perfbench (the first run compiles everything,
later runs only check that the build is current). Build output goes to
stderr, so the last line of stdout is the binary's result object. The
exit status is the binary's: 0 when every output check passed. When the
sources cannot be built, the script fails before printing any result.
See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["perfbench", "perfbench_selftest", "pufferd"]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        cmd = [os.path.join(BUILD, "perfbench_selftest")]
    else:
        cmd = [os.path.join(BUILD, "perfbench")] + args
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
