#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of the checkout.  It
  1. does a one-second run of every workload in BENCHMARK.json, untraced and
     traced, and asserts that the result line carries exactly the metrics
     BENCHMARK.json names (end_to_end resp. per_layer), that every output
     check passed, and that the untraced run reports success_ratio == 1;
  2. feeds one deliberately corrupted GET reply to the kv checker and
     asserts that it is counted as a failed operation (success_ratio < 1)
     and that the run exits non-zero;
  3. runs the benchmark in a directory holding only BENCHMARK.json and the
     benchmark's own files, and asserts that it exits non-zero without
     printing a result.
Exits 0 when every assertion holds.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def last_json(stdout):
    try:
        return json.loads(stdout.rstrip("\n").split("\n")[-1])
    except (ValueError, IndexError):
        return None


def run_bench(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in spec["workloads"]:
        for trace in (0, 1):
            p = run_bench(w["name"], trace)
            r = last_json(p.stdout)
            tag = "%s trace=%d" % (w["name"], trace)
            check(p.returncode == 0 and r is not None, tag + ": exit 0 with a result")
            if r is None:
                continue
            check(sorted(r["metrics"]) == sorted(want[trace]), tag + ": exactly the named metrics")
            check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                  tag + ": outputs checked correct")
            if trace == 0:
                check(r["metrics"]["success_ratio"]["value"] == 1.0, tag + ": success_ratio == 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    run_dir = os.path.join(ROOT, ".bench_run", "selftest-%d" % os.getpid())
    p = subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--workload", "kv_update", "--seed", "1",
         "--seconds", "1", "--trace", "0", "--dir", run_dir, "--inject-bad-get", "3"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    shutil.rmtree(run_dir, ignore_errors=True)
    r = last_json(p.stdout)
    check(p.returncode != 0, "corrupted GET: run exits non-zero")
    check(r is not None and r["failed"] >= 1 and r["correct"] is False
          and r["metrics"]["success_ratio"]["value"] < 1.0,
          "corrupted GET: counted as failed, success_ratio < 1")

    bare = os.path.join(ROOT, ".bench_run", "bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = run_bench(spec["workloads"][0]["name"], 0, cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check(p.returncode != 0 and last_json(p.stdout) is None,
          "bare directory: exits non-zero without a result")
    try:
        os.rmdir(os.path.join(ROOT, ".bench_run"))
    except OSError:
        pass

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
