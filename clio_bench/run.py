#!/usr/bin/env python3
"""Runs one clio_bench workload in a fresh process (see BENCHMARK.json).

Builds clio_bench from source into .bench_build/ under the repository root
(configure once, then an incremental build on every call), runs

    clio_bench run <workload> --seed N --seconds S [--trace]

and passes its output through, so the last line of stdout is the result
object: {"correct", "attempted", "failed", "metrics"}.  Build output goes
to stderr.  Exits non-zero, without a result line, when the build fails or
the result does not carry exactly the metrics BENCHMARK.json declares.

usage: python3 clio_bench/run.py --workload NAME [--seed N] [--seconds S]
                                 [--trace 0|1] [--out DIR]
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configures (until a build succeeded) and builds clio_bench; returns
    its path."""
    cmake_dir = os.path.join(BUILD, "cmake")
    binary = os.path.join(cmake_dir, "clio_bench")
    if not os.path.exists(binary):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "clio_bench"),
                        "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return binary


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(BUILD, "out"))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "run", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", args.out,
           "--workdir", os.path.join(BUILD, "work")]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        names = list(result["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stderr.write(proc.stdout)
        print("run.py: clio_bench printed no result", file=sys.stderr)
        return proc.returncode or 1
    if names != declared_metrics(args.trace):
        print(f"run.py: metrics {names} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
