#!/usr/bin/env python3
"""Smoke test for the benchmark itself. Run from the repository root:

    python3 hwbench/smoke_test.py

Runs every workload at smoke length (small inputs, one second) with and
without tracing, and asserts that the result line parses with exactly the
keys correct, attempted, failed and metrics; that every metric
BENCHMARK.json names is present with its unit and finite; that end-to-end
metrics are positive; that the run passed all its output checks; and that
for the median svc request admit_wait + batch_wait + exec adds up to its
total within PHASE_TOLERANCE. Then builds and runs the crash test
(hwbench_crash_test). Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

# Requests of one svc batch share its exec time, then complete one after
# another; the completion fan-out after the shared exec is the only part of
# a request's total outside the three phases.
PHASE_TOLERANCE = 0.2


def check(cond, message):
    if not cond:
        print("FAIL: " + message)
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, "hwbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0,
          "%s trace=%d exited %d: %s" % (workload, trace, proc.returncode,
                                         proc.stderr[-2000:]))
    check(len(lines) >= 3, "%s: expected fingerprint, detail and result "
          "lines" % workload)
    fingerprint = json.loads(lines[-3])["fingerprint"]
    for key in ("nproc", "isa", "simd_backend", "caches_bytes", "build_type",
                "tunables", "seed", "work_dir_fs", "host_steal_frac",
                workload + ".config"):
        check(key in fingerprint, "%s: fingerprint lacks %s" % (workload, key))
    json.loads(lines[-2])
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            result = run(workload, trace)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  "%s: result keys %s" % (workload, sorted(result)))
            check(result["correct"] is True and result["failed"] == 0,
                  "%s trace=%d: %d failed" % (workload, trace,
                                              result["failed"]))
            check(result["attempted"] >= 1, workload + ": nothing attempted")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in declared},
                  "%s trace=%d: metric names differ from BENCHMARK.json"
                  % (workload, trace))
            for m in declared:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"],
                      "%s: unit of %s" % (workload, m["name"]))
                check(isinstance(got["value"], (int, float)) and
                      math.isfinite(got["value"]),
                      "%s: %s is not finite" % (workload, m["name"]))
                if trace == 0:
                    check(got["value"] > 0,
                          "%s: %s is not positive" % (workload, m["name"]))
            if trace == 1 and metrics["svc.total_p50_us"]["value"] > 0:
                gap = metrics["svc.phase_gap_frac"]["value"]
                check(gap <= PHASE_TOLERANCE,
                      "%s: svc phases miss the median total by %.3f"
                      % (workload, gap))
            print("ok %s trace=%d" % (workload, trace))

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target_dir, "hwbench")
    proc = subprocess.run(["cmake", "--build", build_dir, "--target",
                           "hwbench_crash_test"], stdout=subprocess.DEVNULL)
    check(proc.returncode == 0, "crash test build failed")
    proc = subprocess.run([os.path.join(build_dir, "hwbench_crash_test")])
    check(proc.returncode == 0, "crash test failed")
    print("PASS")


if __name__ == "__main__":
    main()
