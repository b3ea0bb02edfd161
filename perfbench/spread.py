#!/usr/bin/env python3
"""Run one benchmark workload k times, each with another seed, and print
every metric's median, quartiles and relative spread.

    python3 perfbench/spread.py --workload text_edits --runs 10

The spread is (q3 - q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). Each end-to-end metric is shown with
its bound from BENCHMARK.json and whether the spread stays below a
third of it; the time metrics also appear as read before scaling by the
stolen share (unscaled.*). Run from the repository root; the benchmark
command and run length come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    about = [line for line in lines if line.startswith(("host:", "input:"))]
    result = json.loads(lines[-1])
    # The times before scaling by the stolen share, for comparison.
    for line in lines:
        if line.startswith("unscaled:"):
            for item in line.split()[1:]:
                name, value = item.split("=")
                result["metrics"]["unscaled." + name] = {"value": float(value), "unit": ""}
    return about, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    ap.add_argument("--seconds", type=int, default=None, help="defaults to run_seconds")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, units, shares = {}, {}, []
    for i in range(args.runs):
        seed = args.seed0 + i
        about, result = run_once(bench, args.workload, seed, seconds)
        if i == 0:
            first_about = about
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported correct=false: {result}")
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']}", flush=True)

    print("\n".join(first_about))
    print(f"workload={args.workload} runs={args.runs} seconds={seconds}")
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  ok")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        ok = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        bound_s = "" if bound is None else f"{bound:.2f}"
        print(f"{name:28} {units[name]:6} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {bound_s:>6}  {ok}")
    for name, vs in values.items():
        print(f"values {name}: {[round(v, 5) for v in vs]}")


if __name__ == "__main__":
    main()
