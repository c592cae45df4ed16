#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly with distinct seeds
and prints, per metric, the median, the quartiles and the relative
spread (interquartile distance over the median), next to the bound
BENCHMARK.json sets.

    python3 perfbench/steady.py [--runs 10] [--seconds N] [--trace 0|1|both]
                                [--workload NAME ...] [--first-seed 1]

Run from the repository root. Builds the benchmark once, then calls the
built binary directly so build time stays out of the figures. With
--trace both it runs every seed untraced and traced and prints the two
sets of end-to-end medians side by side (the tracing overhead).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "perfbench", "Cargo.toml")],
        check=True, cwd=ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def run(binary, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        check=True, cwd=ROOT, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    # Both runs print their end-to-end figures on the lines before the
    # result ("end-to-end: <name> <value> <unit>").
    result["e2e"] = {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) == 4 + (words[0] == "traced") and words[-4] == "end-to-end:":
            result["e2e"][words[-3]] = float(words[-2])
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", choices=["0", "1", "both"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    binary = build()
    for workload in workloads:
        results = {t: [] for t in traces}
        for i in range(args.runs):
            for t in traces:
                results[t].append(run(binary, workload, args.first_seed + i, args.seconds, t))
        for t in traces:
            runs = results[t]
            shares = sorted({(r["failed"], r["attempted"]) for r in runs})
            print(f"{workload} trace {t}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
                  f"failed/attempted {shares}")
            for name, metric in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                if len(values) < 2 or statistics.median(values) == 0:
                    print(f"  {name:45s} median {statistics.median(values):.6g} {metric['unit']}")
                    continue
                med, q1, q3, rel = spread(values)
                bound = bounds.get(name) if t == 0 else None
                flag = "" if bound is None else f"  bound {bound}{'  OVER' if rel > bound else ''}"
                print(f"  {name:45s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} {metric['unit']}"
                      f"  spread {rel:.3f}{flag}")
        if args.trace == "both":
            print(f"{workload}: tracing overhead, end-to-end medians untraced vs traced")
            for name in results[0][0]["e2e"]:
                plain = statistics.median(r["e2e"][name] for r in results[0])
                traced = statistics.median(r["e2e"][name] for r in results[1])
                print(f"  {name:45s} untraced {plain:.6g} traced {traced:.6g} ratio {traced / plain:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
