#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload chol_tight --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed (sequentially, each in a fresh process)
and prints, for every metric, the median over the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median. For end-to-end metrics it also prints the bound
from BENCHMARK.json and whether the spread is within a third of it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, (Q3 - Q1) / median) of a list of at least two numbers."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / abs(med) if med else 0.0)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, cwd=ROOT, check=False)
        if proc.returncode != 0:
            print("seed %d: run failed (%d)" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: incorrect result %s" % (seed, result))
            return 1
        runs.append(result["metrics"])
        print("seed %-3d %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            file=sys.stderr)
    ok = True
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med, sp = spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if sp <= bound / 3 else "WIDE"
            ok = ok and sp <= bound
        print("%-26s median %-14.6g spread %6.3f  bound %-5s %s" %
              (name, med, sp, bound if bound is not None else "-", flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
