#!/usr/bin/env python3
"""Steadiness command: run workloads repeatedly and summarise each metric.

    python3 perfbench/steady.py [--workloads a,b] [--runs N] [--trace 0|1]
                                [--save FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

It runs each workload with seeds 1..N at BENCHMARK.json's run_seconds.
For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median. With --trace 0 every
end-to-end spread, setup_s included, is checked against a third of the
metric's bound in BENCHMARK.json; a spread above that but within the
bound is marked as such. --compare takes two saved sets of the same code
and checks that every end-to-end median of the second differs from the
first, in either direction, by at most the bound, and that the failed
share is identical.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(results, spec, trace):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        fails = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"failed share(s)={fails}")
        steady &= correct and len(fails) == 1
        print(f"  {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}  verdict")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarise(values)
            verdict = ""
            if not trace and name in bounds:
                bound = bounds[name]["bound"]
                ok = spread < bound / 3
                steady &= ok
                verdict = ("ok" if ok else "WIDE" if spread > bound
                           else "above a third of the bound")
                verdict += f" (bound/3 {bound / 3:.3f})"
            print(f"  {name:30s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f}  {verdict}")
    return steady


def compare(first, second, spec):
    ok = True
    for m in spec["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        for workload in first:
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            change = (b - a) / a
            good = abs(change) <= bound
            ok &= good
            print(f"{workload:26s} {name:12s} first {a:12.6g} second "
                  f"{b:12.6g} change {change:+.3f} ({better} is better, "
                  f"bound {bound}) {'ok' if good else 'DIFFERS'}")
    for workload in first:
        fa = {r["failed"] / r["attempted"] for r in first[workload]}
        fb = {r["failed"] / r["attempted"] for r in second[workload]}
        same = fa == fb and len(fa) == 1
        ok &= same
        print(f"{workload:26s} failed share {sorted(fa)} vs {sorted(fb)} "
              f"{'ok' if same else 'DIFFERS'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", default="")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(sets[0], sets[1], spec) else 1

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    results = {}
    for workload in workloads:
        results[workload] = []
        for seed in range(1, args.runs + 1):
            r = run_once(workload, seed, spec["run_seconds"], args.trace)
            results[workload].append(r)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                if not args.trace), file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    return 0 if report(results, spec, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
