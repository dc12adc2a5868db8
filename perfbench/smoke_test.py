#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, runs perfbench/run.py at --size tiny,
untraced and traced, and asserts that the last output line is the result
object, that no op failed and the outputs checked out, and that every metric
BENCHMARK.json names prints with its unit (end-to-end metrics with a
positive value). Then checks that the benchmark refuses to produce a result
in a directory that holds only BENCHMARK.json and perfbench/. Exits 0 when
all checks pass.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check_result(spec, workload, trace, proc, errors):
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        errors.append("%s: exit code %d\n%s" % (where, proc.returncode,
                                                 proc.stderr[-2000:]))
        return
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
        return
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        errors.append("%s: metric names differ from BENCHMARK.json" % where)
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            errors.append("%s: %s prints %r, want unit %s" % (
                where, m["name"], got, m["unit"]))
        elif not trace and got["value"] <= 0:
            errors.append("%s: %s is %r" % (where, m["name"], got["value"]))


def check_refuses_without_sources(errors):
    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "batch", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("bare checkout: exit %d, stdout %r" % (
            proc.returncode, proc.stdout[-200:]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, workload, trace, run(ROOT, workload, trace),
                         errors)
    check_refuses_without_sources(errors)
    for e in errors:
        print("FAIL " + e)
    print("smoke test: %s" % ("ok" if not errors else
                              "%d failure(s)" % len(errors)))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
