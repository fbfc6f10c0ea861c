#!/usr/bin/env python3
"""Runs one perfbench workload of webspread and prints its result.

usage (from the root of a source checkout):
    python3 perfbench/run.py --workload scan_cold|analyze_warm|serve_mix \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call builds the benchmark and the library it measures from
source into .bench_build/ (CMake, Release); later calls rebuild only what
changed. The workload binary prints the environment header, every metric
with its unit and sample counts, and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes a Chrome
trace-event file under .bench_build/traces/. The exit code is non-zero when
the build fails or an output check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("scan_cold", "analyze_warm", "serve_mix")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", "4"],
                           stdout=log, stderr=log) != 0:
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def source_hash():
    """sha256 over the sources the build compiles (path + bytes)."""
    digest = hashlib.sha256()
    trees = [os.path.join(ROOT, "src"), os.path.join(BENCH_DIR, "src")]
    files = [os.path.join(ROOT, "tools", "wsdd_main.cc"),
             os.path.join(BENCH_DIR, "CMakeLists.txt")]
    for tree in trees:
        for dirpath, _, names in os.walk(tree):
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def run(argv):
    """Runs argv, relaying its output; kills it after RUN_TIMEOUT_S."""
    proc = subprocess.Popen(argv, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed; see .bench_build/build.log",
              file=sys.stderr)
        return 1
    if args.self_test:
        return run([os.path.join(BUILD_DIR, "perfbench_selftest")])

    work_dir = os.path.join(BUILD_ROOT, "work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    try:
        return run([
            os.path.join(BUILD_DIR, "wsbench"),
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
            f"--work_dir={work_dir}",
            f"--bench_dir={BENCH_DIR}",
            f"--bin_dir={BUILD_DIR}",
            f"--trace_out={trace_dir}/{args.workload}-seed{args.seed}.json",
            f"--git_sha={git_sha()}",
            f"--source_hash={source_hash()}",
        ])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
