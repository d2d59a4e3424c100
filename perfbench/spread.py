#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median,
quartiles and spread (inter-quartile distance over the median), next to the
metric's regression bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload fixed-narrow --seeds 1 2 3 4 5

Each run's result line is appended to .bench_out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(".bench_out", exist_ok=True)
    log = open(f".bench_out/spread-{args.workload}.jsonl", "a")
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {run.returncode}, last line {last!r}")
        result = json.loads(last)
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed")
        log.write(json.dumps({"seed": seed, **result}) + "\n")
        log.flush()
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} seeds, {seconds} s per run")
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = f"{(q3 - q1) / med:8.4f}" if med else "     n/a"
        else:
            q1 = q3 = med
            spread = "     n/a"
        bound = bounds.get(name)
        print(f"{name:<28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread} "
              f"{bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
