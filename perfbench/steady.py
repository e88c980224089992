#!/usr/bin/env python3
"""Steadiness report: repeats each workload with seeds 1..runs and
prints, for every end-to-end metric, the median, the quartiles and the
interquartile range as a share of the median, next to the bound
BENCHMARK.json sets for it.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --runs 5 --workloads cold_uniform

Quartiles come from statistics.quantiles(values, n=4). Runs go one after
another, each a child process that is waited for.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for w in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            r = run_once(spec, w, seed, args.seconds)
            results.append(r)
            print(f"# {w} seed={seed} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"## {w}: {args.runs} runs, correct={all(r['correct'] for r in results)}, "
              f"failed shares={sorted(shares)}")
        print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if b is None else b:>6} {unit}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
