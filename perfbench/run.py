#!/usr/bin/env python3
"""Benchmark entry point: builds sstbench from source, then runs one workload.

    python3 perfbench/run.py --workload node_serial --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each call configures and builds perfbench/
(the simulator libraries, sstsim and the sstbench program) into .bench_build/;
after the first call both steps only check that the build is current.
Scratch files and span dumps go to .bench_out/.  The last line of stdout is
sstbench's JSON result; the exit code is non-zero when the build fails or
any output check fails.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_out"
WORKLOADS = ("node_serial", "node_ranks2", "hotspot_ranks4", "sweep_local")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20061111  # never used while tuning the benchmark


def build():
    """Configures and builds sstbench; returns the binaries' paths.

    Both steps are no-ops (well under a second) when nothing changed, and
    configuring every time recovers from an earlier failed configure.
    """
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "sstbench", "sstsim"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(BUILD_DIR, "sstbench"),
            os.path.join(BUILD_DIR, "sst", "tools", "sstsim"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        sstbench, sstsim = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([sstbench, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--sstsim", sstsim,
                           "--work-dir", WORK_DIR]).returncode


if __name__ == "__main__":
    sys.exit(main())
