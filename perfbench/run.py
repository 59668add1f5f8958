#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources, run one workload, and
pass its report through.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build); each run gets a fresh namespace directory under
.bench_run/ that is removed afterwards.  The last line of standard output
is the JSON result; the exit status is non-zero when the build fails, a
check fails, or no valid result was produced.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["kv_update", "kv_read_tier", "pool_tx_mt", "hpc_ckpt"]
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(root, ".bench_run",
                           "%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir,
           "--trace-out", os.path.join(build_dir, "traces", args.workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_run"))
        except OSError:
            pass
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        print("perfbench: no result (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
