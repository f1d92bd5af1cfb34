#!/usr/bin/env python3
"""Steadiness check for the tpccbench benchmark.

Runs one workload N times, each with another seed, and prints for every
end-to-end metric in BENCHMARK.json its median, first and third quartiles,
and the spread (Q3 - Q1) / median against the metric's bound. With --sets 2
it runs a second set on fresh seeds and shows whether the two medians agree
within the bound, and whether the share of failed operations is the same.

Run from the root of the repository:

    python3 tpccbench/steadiness.py --workload tpcc-split --runs 10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    for line in lines[:-1]:
        print(f"  seed {seed}: {line}")
    if not res["correct"]:
        for line in proc.stderr.splitlines():
            print(f"  seed {seed} stderr: {line}")
    return res, wall


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_set(cmd, bench, args, first_seed):
    results = []
    for i in range(args.runs):
        seed = first_seed + i
        res, wall = run_once(cmd, args.workload, seed, bench["run_seconds"])
        share = Fraction(res["failed"], res["attempted"])
        print(f"  seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} (share {share}) wall={wall:.1f}s", flush=True)
        results.append(res)
    return results


def summarize(bench, results, label):
    metrics = bench["end_to_end"]
    print(f"\n{label}: {len(results)} runs")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    medians = {}
    for m in metrics:
        name = m["name"]
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(vals)
        medians[name] = med
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        if name == "setup_s":
            verdict = "(set-up: spread not bounded)"
        elif spread < bound / 3:
            verdict = "ok"
        elif spread <= bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "WIDER THAN BOUND"
        print(f"{name:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bound:6.2f}  {verdict}")
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    correct = all(r["correct"] for r in results)
    print(f"failed share per run: {sorted(str(s) for s in shares)}; all correct: {correct}")
    return medians, shares


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 to give quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]

    sets = []
    for s in range(args.sets):
        first = args.first_seed + s * args.runs
        print(f"set {s + 1}: {args.workload}, seeds {first}..{first + args.runs - 1}, "
              f"{bench['run_seconds']} s per run", flush=True)
        results = run_set(cmd, bench, args, first)
        sets.append(summarize(bench, results, f"set {s + 1}"))

    if args.sets == 2:
        (m1, s1), (m2, s2) = sets
        print("\nsecond median against the first (worse direction, as a share of the first):")
        agree = s1 == s2
        for m in bench["end_to_end"]:
            name, a, b = m["name"], m1[m["name"]], m2[m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= m["bound"]
            agree = agree and ok
            print(f"{name:32} {a:12.4f} {b:12.4f} {worse:+8.3f} {m['bound']:6.2f}  {'ok' if ok else 'WORSE THAN BOUND'}")
        print(f"failed shares equal across sets: {s1 == s2}")
        print("sets agree" if agree else "SETS DISAGREE")


if __name__ == "__main__":
    main()
