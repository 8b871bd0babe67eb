#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs each workload a number of times through the command BENCHMARK.json
names and prints, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, against the metric's
bound.

It fails (exit 1) when a run fails or reports ``correct: false``, when the
share of failed operations differs between runs, when two runs of the same
seed report different work counts (the ``# work/round`` line: the driving
is deterministic, so a count that drifts means the runs measured different
work), or when a spread exceeds its metric's bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 5                 # one seed, 5 runs
    python3 perfbench/steady.py --runs 10 --vary-seed    # seeds 1..10
    python3 perfbench/steady.py --workload fork-append --runs 5 --vary-seed
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    work = next((l for l in lines if l.startswith("# work/round")), None)
    return result, work


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed SEED+i instead of SEED")
    parser.add_argument("--workload", action="append",
                        help="restrict to this workload (repeatable)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        work_by_seed = {}
        shares = set()
        for i in range(args.runs):
            seed = args.seed + i if args.vary_seed else args.seed
            result, work = run_once(bench["command"], workload, seed, seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false")
                ok = False
            shares.add(Fraction(result["failed"], result["attempted"]))
            work_by_seed.setdefault(seed, set()).add(work)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} run {i + 1}/{args.runs} seed {seed}: "
                  + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                  flush=True)
        print(f"{workload}: {args.runs} runs")
        for seed, works in sorted(work_by_seed.items()):
            if len(works) > 1:
                print(f"  WORK DRIFT at seed {seed}: {sorted(map(str, works))}")
                ok = False
        if len(shares) > 1:
            print(f"  FAILED SHARE DIFFERS between runs: {sorted(shares)}")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if spread > bound:
                verdict = "OVER BOUND"
                ok = False
            elif spread > bound / 3:
                verdict = "above bound/3"
            print(f"  {name:<18} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bound} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
