#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

Collect a set of runs (one output file per run, named <workload>.<seed>.out):

    python3 perfbench/compare.py collect OUT_DIR [--seeds 1-10] [--workloads a,b]

Compare a parent set against a change set:

    python3 perfbench/compare.py diff PARENT_DIR CHANGE_DIR

For every end-to-end metric of BENCHMARK.json and every workload, `diff`
prints both sides' median and quartiles and a verdict:

  better      the change wins at least 9 of 10 pairs (run i of each side;
              ties count for neither) and the medians differ by more than
              the parent's own spread (its interquartile distance);
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unchanged   neither, with the parent's spread within the bound;
  unresolved  the parent's spread is wider than the bound, so "unchanged"
              cannot be told from noise -- unless every change run reads
              better (or worse) than every parent run.

Both sets must come from the same benchmark code and settings; run the
two sides alternately when collecting, so drift in the machine falls on
both.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(path):
    """The JSON result (the last stdout line) of one saved run."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def load_runs(directory):
    """{workload: [result, ...]} ordered by seed."""
    runs = {}
    names = [n for n in os.listdir(directory) if n.endswith(".out")]

    def seed_of(name):
        parts = name.split(".")
        return int(parts[-2]) if parts[-2].isdigit() else 0

    for name in sorted(names, key=lambda n: (n.split(".")[0], seed_of(n))):
        result = result_line(os.path.join(directory, name))
        if result is not None:
            runs.setdefault(name.split(".")[0], []).append(result)
    return runs


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    os.makedirs(args.out, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            path = os.path.join(args.out, "%s.%d.out" % (workload, seed))
            with open(path, "w") as out:
                code = subprocess.call(command, stdout=out, cwd=ROOT)
            print("%s seed %d -> %s (exit %d)" % (workload, seed, path, code))
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """One metric on one workload; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse.
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0

    def beats(c, p):
        return sign * (p - c) > 0

    all_better = all(beats(c, p) for c in change for p in parent)
    all_worse = all(beats(p, c) for c in change for p in parent)
    if spread > bound:
        if all_better:
            return "better", spread, worse_by
        if all_worse:
            return "worse", spread, worse_by
        return "unresolved", spread, worse_by
    if worse_by > bound:
        return "worse", spread, worse_by
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better", spread, worse_by
    return "unchanged", spread, worse_by


def diff(args):
    spec = load_spec()
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    print("%-20s %-14s %28s %28s %7s %7s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "spread", "worse", "verdict"))
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        parents = parent_runs.get(workload, [])
        changes = change_runs.get(workload, [])
        if not parents or not changes:
            print("%-20s (no runs on one side)" % workload)
            status = 1
            continue
        for bad in [r for r in parents + changes if not r["correct"]]:
            print("%-20s a run is not correct: %s" % (workload, bad))
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parents]
            c = [r["metrics"][name]["value"] for r in changes]
            v, spread, worse_by = verdict(p, c, metric["better"],
                                          metric["bound"])
            pq = quartiles(p)
            cq = quartiles(c)
            print("%-20s %-14s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%6.1f%% %+6.1f%%  %s" % (
                      workload, name, statistics.median(p), pq[0], pq[1],
                      statistics.median(c), cq[0], cq[1], 100 * spread,
                      100 * worse_by, v))
            if v == "worse":
                status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect", help="run the benchmark and save outputs")
    c.add_argument("out")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    d = sub.add_parser("diff", help="compare two collected sets")
    d.add_argument("parent")
    d.add_argument("change")
    args = parser.parse_args()
    return collect(args) if args.mode == "collect" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
