#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload finetune_mcunet --seed 1 \
        --seconds 30 --trace 0

Builds the library and the benchmark program (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and passes the program's output through: human-readable
lines, then one JSON result line. Exits non-zero without a result if
the build or the run fails, or if the metrics it prints are not the
ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
         jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    try:
        t0 = time.monotonic()
        exe = build(build_dir)
        log(f"build ok in {time.monotonic() - t0:.1f} s")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    out_dir = os.path.join(build_dir, "out")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 1

    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
        want = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write(proc.stdout)
        log(f"unreadable result: {e}")
        return 1
    if names != want:
        sys.stderr.write(proc.stdout)
        log("metrics differ from BENCHMARK.json: missing "
            f"{sorted(want - names)}, unexpected {sorted(names - want)}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
