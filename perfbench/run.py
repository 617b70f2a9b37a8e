#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the perfbench binary (Release) from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload in a fresh process, checks that the printed metrics are
exactly the ones BENCHMARK.json lists for the mode (end_to_end for
--trace 0, per_layer for --trace 1), and prints the result object as the
last line of standard output. A per-layer metric of a layer the workload
does not run is reported as 0 and named on a "not_exercised" line.
Exits non-zero, without a result, when the build, the run or the check
fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def fill_unexercised(result, expected):
    """Adds a 0 for each expected metric the result lacks; returns their names."""
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return []
    idle = [m["name"] for m in expected if m["name"] not in metrics]
    for m in expected:
        if m["name"] in idle:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    return idle


def validate(result, expected):
    """Returns a list of problems with a result object; empty when valid."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not an integer" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing attempted")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        problems.append("metric names differ: missing %s, extra %s" % (missing, extra))
    for name, m in metrics.items():
        if set(m) != {"value", "unit"}:
            problems.append("%s has keys %s" % (name, sorted(m)))
            continue
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append("%s is not a finite number" % name)
        if name in want and m["unit"] != want[name]:
            problems.append("%s unit %s, expected %s" % (name, m["unit"], want[name]))
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write("perfbench: unknown workload %s\n" % args.workload)
        return 2
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("perfbench: run failed with code %d\n" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: last line is not JSON: %s\n" % lines[-1][:200])
        return 1
    idle = fill_unexercised(result, expected) if args.trace else []
    problems = validate(result, expected)
    if problems:
        sys.stderr.write("perfbench: invalid result: %s\n" % "; ".join(problems))
        return 1
    for line in lines[:-1]:
        print(line)
    if idle:
        print(json.dumps({"not_exercised": idle}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
