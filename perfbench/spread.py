#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs a workload on several seeds
and prints, per end-to-end metric, the median and the quartile spread
(Q3 - Q1 of the values, as a share of their median) next to the
metric's bound from BENCHMARK.json.

usage (from the repository root):
  python3 perfbench/spread.py WORKLOAD [--runs N]

Runs use seeds 1..N and are sequential (they would contend for the cores
otherwise).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{out.stdout}")
    return result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    results = []
    for seed in range(1, args.runs + 1):
        r = run_once(spec, args.workload, seed)
        results.append(r)
        print(f"  seed {seed}: " + " ".join(
            f"{m['name']} {r['metrics'][m['name']]['value']:.6g}"
            for m in spec["end_to_end"]), flush=True)
    print(f"{args.workload}: {len(results)} runs")
    print(f"  {'metric':18} {'median':>16} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        sp = (q3 - q1) / med
        flag = "" if sp <= m["bound"] / 3 else ("  > bound/3" if sp <= m["bound"] else "  > BOUND")
        print(f"  {m['name']:18} {med:16.6f} {sp:8.4f} {m['bound']:6.2f}{flag}")


if __name__ == "__main__":
    main()
