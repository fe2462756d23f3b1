#!/usr/bin/env python3
"""Builds and runs the hwbench benchmark from the repository root.

    python3 hwbench/run.py --workload <kv_serve|tpcc|analytics> --seed <n>
                           --seconds <s> --trace <0|1> [--smoke]

Configures and builds hwbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/hwbench, or .bench_build/hwbench when that is unset, then
runs one workload with its WAL files in a fresh directory under the build
tree. The benchmark's stdout is passed through; its last line is the result
object. Build output goes to stderr. Exits non-zero when the sources are
missing, the build fails, or the run fails a check.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kv_serve", "tpcc", "analytics")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, target):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("hwstar sources (src/CMakeLists.txt) not found under " + root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "hwbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    root = os.getcwd()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "hwbench")
    binary = build(root, build_dir, "hwbench")

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        code = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
