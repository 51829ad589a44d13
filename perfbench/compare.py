#!/usr/bin/env python3
"""Collect, summarize and compare sets of TaskCheck benchmark runs.

A set of runs is a JSON-lines file that `run.py --record FILE` appends to.

    # ten seeds per workload into one set (runs are sequential)
    python3 perfbench/compare.py collect A.jsonl --seeds 1-10
    # median, quartiles, sample count and spread per workload and metric
    python3 perfbench/compare.py summary A.jsonl
    # do two sets agree within the bounds of BENCHMARK.json?
    python3 perfbench/compare.py diff A.jsonl B.jsonl

Spread is (q3 - q1) / median over the runs of a set, with the quartiles of
statistics.quantiles(values, n=4). `diff` says, per workload and
end-to-end metric: "agree" when B's median is within the metric's bound of
A's median, "worse"/"better" when it moved by more than the bound, and
"unresolved" when either set's spread exceeds the bound (the difference
is then inside the noise). It exits 1 if any pairing is worse or
unresolved, or if any run failed a verdict check.
"""

import argparse
import collections
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


def load_runs(path, trace=0):
    """{workload: {metric: [values]}} over the listed metrics and, in
    traced runs, the layer metrics reported next to them; plus the
    failed-run count."""
    series = collections.defaultdict(lambda: collections.defaultdict(list))
    failed = 0
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["trace"] != trace:
                continue
            if not run["correct"] or run["failed"]:
                failed += 1
            for name, metric in {**run["metrics"],
                                 **run.get("reported", {})}.items():
                series[run["workload"]][name].append(metric["value"])
    return series, failed


def stats(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace), "--record", args.out]
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            if proc.returncode:
                sys.exit(f"error: {workload} seed {seed} exited with "
                         f"code {proc.returncode}")


def summary(args):
    spec = load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    series, failed = load_runs(args.runs, args.trace)
    for workload, metrics in series.items():
        print(workload)
        for name, values in metrics.items():
            median, q1, q3, spread = stats(values)
            bound = bounds.get(name)
            if bound is None:
                flag = "not gated"
            else:
                flag = ("ok" if spread <= bound / 3 else
                        "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:34} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  n {len(values):3d}  spread "
                  f"{spread:7.2%}  {flag}")
    if failed:
        print(f"{failed} run(s) failed a verdict check")
    return 1 if failed else 0


def diff(args):
    spec = load_spec()
    a, failed_a = load_runs(args.a)
    b, failed_b = load_runs(args.b)
    bad = failed_a + failed_b
    print(f"{'workload':12} {'metric':24} {'median A':>12} {'median B':>12} "
          f"{'B/A-1':>8} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
    for workload in sorted(set(a) | set(b)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in a.get(workload, {}) or name not in b.get(workload, {}):
                print(f"{workload:12} {name:24} missing in one set")
                bad += 1
                continue
            ma, _, _, sa = stats(a[workload][name])
            mb, _, _, sb = stats(b[workload][name])
            change = mb / ma - 1
            worse = change if metric["better"] == "lower" else -change
            if max(sa, sb) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "worse"
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "agree"
            bad += verdict in ("worse", "unresolved")
            print(f"{workload:12} {name:24} {ma:12.6g} {mb:12.6g} "
                  f"{change:+8.2%} {bound:6.2f} {sa:9.2%} {sb:9.2%}  {verdict}")
    if failed_a or failed_b:
        print(f"runs failing a verdict check: A {failed_a}, B {failed_b}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark into a set")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("summary", help="median/quartiles/spread of a set")
    p.add_argument("runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("diff", help="compare two sets against the bounds")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return summary(args) if args.command == "summary" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
