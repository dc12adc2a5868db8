#!/usr/bin/env python3
"""Runs the end-to-end benchmark of templex.

    python3 perfbench/run.py --workload batch|serve|analyst --seed N \
        --seconds S --trace 0|1 [--size tiny]

Builds the benchmark (and the templex library it links) from source in
Release mode under .bench_build/perfbench on first use, generates the
workload's inputs from the seed, runs the measurement, and prints the
benchmark's report. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The line before it
stamps the host shape: CPU count, library build type and the CPU-steal share
of the run (from /proc/stat). Exits 1 without a result when the sources are
missing, the build fails or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "templex_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr.

    The compiler's temporary files go under the build tree too (TMPDIR),
    so building writes nothing outside the checkout.
    """
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("templex sources not found next to perfbench/")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "templex_perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if result.returncode != 0 or not os.path.isfile(BINARY):
        fail("build failed")


def build_type():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def cpu_times():
    """(steal, total) jiffies of the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch", "serve", "analyst"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    build()

    work = os.path.join(ROOT, ".bench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--programs", os.path.join(HERE, "programs"),
               "--size", args.size]
    if args.trace:
        command += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    steal0, total0 = cpu_times()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    steal1, total1 = cpu_times()

    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout)
        fail("benchmark exited with code %d" % result.returncode)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(result.stdout)
        fail("benchmark printed no result")
    for line in lines[:-1]:
        print(line)
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_type(),
        "cpu_steal_share": round((steal1 - steal0) / max(1, total1 - total0), 6),
    }
    print("host: " + json.dumps(host))
    print(lines[-1])


if __name__ == "__main__":
    main()
