#!/usr/bin/env python3
"""Judge a paired result set: one verdict per (metric, workload).

    python3 perfbench/steady.py --parent old/perfbench --change new/perfbench \\
        --out perfbench/results/pairs.json
    python3 perfbench/compare.py perfbench/results/pairs.json

The input is what steady.py writes with --parent and --change: the same
seeds, seconds and build settings on both sides, run as pairs whose order
alternates. A single-build result set such as baseline.json is reference
only and is refused here, because host speed drifts between sets taken
at different times.

Each row gives both sides' median and quartiles, the change of the
median, and the pairs the change wins (ties count for neither side).
Verdicts:

* Simulated metrics, `certified_share` and `sim_on_time_share` are exact
  per seed. `unchanged` when every seed matches. Otherwise `worse` when
  the change's median is worse by more than the metric's bound,
  `improved` when the change wins at least nine tenths of the pairs and
  its median is better, and `changed` for any other difference.
* Host metrics. The spread of a side is (q3 - q1) / median over its
  runs. When either side's spread exceeds the bound the verdict is
  `unresolved`, unless every run of the change reads better (`improved`)
  or worse (`worse`) than every run of the parent. Otherwise the change
  is `worse` when its median is worse by more than the bound, and
  `improved` when it wins at least nine tenths of the pairs and its
  median is better by more than the parent's spread. Anything else is
  `unchanged`.

Exits 1 when any pair is `worse`.
"""

import json
import statistics
import sys

EXACT = ("sim_", "certified_share")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def better(a, b, lower):
    """True when value b is better than value a."""
    return b < a if lower else b > a


def verdict(name, spec, runs_a, runs_b):
    """Verdict on one metric of one workload, from seed-matched runs."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    by_seed_a = {r["seed"]: r["metrics"][name]["value"] for r in runs_a}
    by_seed_b = {r["seed"]: r["metrics"][name]["value"] for r in runs_b}
    seeds = sorted(set(by_seed_a) & set(by_seed_b))
    a = [by_seed_a[s] for s in seeds]
    b = [by_seed_b[s] for s in seeds]
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    change = (mb - ma) / ma if ma else 0.0
    worse_by = change if lower else -change
    wins = sum(better(x, y, lower) for x, y in zip(a, b))
    most = wins >= 0.9 * len(seeds)
    row = {"parent": (q1a, ma, q3a), "change": (q1b, mb, q3b), "delta": change,
           "wins": wins, "pairs": len(seeds)}
    if name.startswith(EXACT):
        if a == b:
            v = "unchanged"
        elif worse_by > bound:
            v = "worse"
        elif most and worse_by < 0:
            v = "improved"
        else:
            v = "changed"
        return v, row
    sa = (q3a - q1a) / ma if ma else 0.0
    sb = (q3b - q1b) / mb if mb else 0.0
    if max(sa, sb) > bound:
        if all(better(x, y, lower) for x in a for y in b):
            v = "improved"
        elif all(better(y, x, lower) for x in a for y in b):
            v = "worse"
        else:
            v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif most and -worse_by > sa:
        v = "improved"
    else:
        v = "unchanged"
    return v, row


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    data = json.load(open(sys.argv[1]))
    if "parent" not in data or "change" not in data:
        print(f"{sys.argv[1]} is not a paired result set; make one with "
              "steady.py --parent P --change C", file=sys.stderr)
        sys.exit(2)
    parent = data["parent"]["results"]
    change = data["change"]["results"]
    specs = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    any_worse = False
    print(f"{'workload':15s} {'metric':22s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'delta':>8s} {'wins':>6s}  verdict")
    for w in parent:
        if w not in change:
            print(f"{w:15s} (missing from the change's side)")
            continue
        for name, spec in specs.items():
            v, row = verdict(name, spec, parent[w], change[w])
            any_worse |= v == "worse"
            sides = ["{:.4g}/{:.4g}/{:.4g}".format(*row[s]) for s in ("parent", "change")]
            print(f"{w:15s} {name:22s} {sides[0]:>32s} {sides[1]:>32s} "
                  f"{100 * row['delta']:7.2f}% {row['wins']:>2d}/{row['pairs']:<3d}  {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
