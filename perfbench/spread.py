#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread and its repeatable counts.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--out runs.json]
    python3 perfbench/spread.py --repeat [--workloads a,b] [--seed 5]
    python3 perfbench/spread.py --compare first.json second.json

Run from the root of a checkout. The first form runs each workload once
per seed, untraced, and prints for every end-to-end metric its median and
its interquartile range as a share of the median (statistics.quantiles,
n=4) next to the bound in BENCHMARK.json; a spread above a third of the
bound is flagged, setup_s included. --out keeps every run's metrics. The
third form compares two such sets: for every workload and metric it prints
both medians and flags a second median worse than the first by more than
the metric's bound. The second form runs each workload twice with one seed and
checks that the counts which must repeat are identical: the core.* plan
counts (traced runs) and stored_bytes_per_user_byte (untraced runs);
--out keeps those runs' metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATED_COUNTS = ("core.max_disk_load", "core.fanout", "core.fetch_per_elem")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def spread(bench, workloads, seeds, seconds, out):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    worst = 0.0
    for w in workloads:
        runs[w] = [run(w, seed, seconds, 0) for seed in seeds]
        print(f"\n{w}: {len(seeds)} seeds, {seconds} s each")
        print(f"  {'metric':28} {'median':>14} {'iqr/median':>11} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share <= bound / 3 else "  <-- above bound/3"
            worst = max(worst, share / bound)
            print(f"  {name:28} {med:14.4f} {share:11.4f} {bound:6.2f}{flag}")
    print(f"\nworst spread / bound: {worst:.3f}")
    if out:
        with open(out, "w") as f:
            json.dump(runs, f, indent=1)


def compare(bench, first, second):
    sets = []
    for path in (first, second):
        with open(path) as f:
            sets.append(json.load(f))
    ok = True
    print(f"  {'workload':18} {'metric':28} {'median 1':>12} {'median 2':>12} {'change':>8} "
          f"{'bound':>6}")
    for w in sets[0]:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = (statistics.median(r[name]["value"] for r in s[w]) for s in sets)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= bound else "  <-- worse than bound"
            ok &= not flag
            print(f"  {w:18} {name:28} {a:12.4f} {b:12.4f} {(b - a) / a:+8.3f} "
                  f"{bound:6.2f}{flag}")
    sys.exit(0 if ok else 1)


def repeat(workloads, seed, seconds, out):
    ok = True
    runs = {}
    for w in workloads:
        traced = [run(w, seed, seconds, 1) for _ in range(2)]
        untraced = [run(w, seed, seconds, 0) for _ in range(2)]
        runs[w] = {"traced": traced, "untraced": untraced}
        names = [n for n in traced[0] if n.removeprefix("degraded.") in REPEATED_COUNTS]
        pairs = [(n, traced[0][n]["value"], traced[1][n]["value"]) for n in sorted(names)]
        pairs.append(("stored_bytes_per_user_byte",
                      untraced[0]["stored_bytes_per_user_byte"]["value"],
                      untraced[1]["stored_bytes_per_user_byte"]["value"]))
        for name, a, b in pairs:
            same = a == b
            ok &= same
            print(f"{w:18} {name:36} {a:.17g} {b:.17g} {'same' if same else 'DIFFERENT'}")
    if out:
        with open(out, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    if args.compare:
        compare(bench, *args.compare)
    elif args.repeat:
        repeat(workloads, args.seed, seconds, args.out)
    else:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        spread(bench, workloads, list(seeds), seconds, args.out)


if __name__ == "__main__":
    main()
