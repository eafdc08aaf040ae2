#!/usr/bin/env python3
"""Compare timed benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory is a results tree as bench/run.py writes it
(`<dir>/<workload>/seed<n>-trace0/result.json`), for example a copy of
bench/out taken after running each commit on the same seeds. Runs are
paired by workload and seed.

For every workload and end-to-end metric of BENCHMARK.json it prints both
sides' medians and quartiles, the share of pairs the change won (ties count
for neither side) and a verdict, by the rule of the choosing-metrics guide
(section 8) with the benchmark's own bounds:

- improved: the change won at least 9 of 10 pairs and the medians differ,
  in its favour, by more than the parent's quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (a share of the parent's median);
- unresolved: the parent's quartile distance is wider than the bound, unless
  every run of the change beats every run of the parent;
- no worse: otherwise.

Exits 1 if any verdict is "worse".
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{workload: {seed: {metric: value}}} of the timed runs under a tree."""
    runs = {}
    for path in sorted(Path(directory).glob("*/seed*-trace0/result.json")):
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        runs.setdefault(res["workload"], {})[res["seed"]] = {
            name: m["value"] for name, m in res["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _summary(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(parent, change, better, bound):
    """(verdict, share of pairs won) for two equal-length paired lists."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    share = wins / len(parent)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (mc - mp)
    if share >= 0.9 and gain > q3 - q1:
        return "improved", share
    if -gain > bound * abs(mp):
        return "worse", share
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) > bound * abs(mp) and not beats_all:
        return "unresolved", share
    return "no worse", share


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    worse = False
    header = (f"{'workload':<17} {'metric':<18} {'pairs':>5} "
              f"{'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
              f"{'won':>5}  verdict")
    print(header)
    for workload in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(workload, {}))
                       & set(change.get(workload, {})))
        if not seeds:
            print(f"{workload:<17} no seed run on both sides")
            continue
        for m in metrics:
            name = m["name"]
            p = [parent[workload][s][name] for s in seeds]
            c = [change[workload][s][name] for s in seeds]
            result, share = verdict(p, c, m["better"], m["bound"])
            worse |= result == "worse"
            print(f"{workload:<17} {name:<18} {len(seeds):>5} "
                  f"{_summary(p):>32} {_summary(c):>32} {share:>5.0%}  "
                  f"{result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
