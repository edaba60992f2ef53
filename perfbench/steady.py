#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and record a result set.

Steadiness of one build (seeds --seed0 .. --seed0 + runs - 1):

    python3 perfbench/steady.py --runs 10 --out perfbench/results/mine.json
    python3 perfbench/steady.py --runs 5 --workloads tracker-stream --bin path/to/perfbench

Parent against change, as seed-matched pairs:

    python3 perfbench/steady.py --parent old/perfbench --change new/perfbench \\
        --out perfbench/results/pairs.json
    python3 perfbench/compare.py perfbench/results/pairs.json

Run from the repository root. Each run invokes the command in
BENCHMARK.json (or a prebuilt binary) as
`<command> --workload W --seed S --seconds T --trace 0`.

With one build, the script prints for every end-to-end metric the median,
the quartiles as `statistics.quantiles(values, n=4)` gives them, and the
spread (q3 - q1) / median against a third of the metric's bound. It exits
1 if any run failed or any spread reaches a third of its bound.

With --parent and --change, every seed runs on both binaries back to
back, and the side that goes first alternates from seed to seed, so that
the host's speed drifting over minutes hits both sides alike. The result
set holds both sides, and each side's spreads are printed as above;
compare.py judges the pairs. The script exits 1 if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace=0):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output; stderr:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["exit"] = proc.returncode
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def summarize(runs, bounds):
    """Median, quartiles and spread of each end-to-end metric."""
    out = {}
    for name in bounds:
        q1, med, q3, s = spread([r["metrics"][name]["value"] for r in runs])
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": s}
    return out


def report(summary, bounds):
    """Print each metric's median, quartiles and spread; True when every
    spread stays below a third of its bound."""
    steady_all = True
    for name, bound in bounds.items():
        s = summary[name]
        steady = s["spread"] < bound / 3
        steady_all &= steady
        print(f"  {name:24s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
              f"q3 {s['q3']:<14.6g} spread {s['spread']:7.4f} bound/3 {bound / 3:.4f} "
              f"{'ok' if steady else 'WIDE'}")
    return steady_all


def failed(w, r):
    if r["exit"] != 0 or not r["correct"] or r["failed"]:
        print(f"FAIL {w} seed {r['seed']}: exit {r['exit']} correct {r['correct']} failed {r['failed']}")
        return True
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--bin", default="", help="prebuilt perfbench binary")
    ap.add_argument("--parent", default="", help="parent's perfbench binary (pairs mode)")
    ap.add_argument("--change", default="", help="change's perfbench binary (pairs mode)")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    if bool(args.parent) != bool(args.change):
        ap.error("--parent and --change go together")

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.seed0, args.seed0 + args.runs)
    ok = True

    if args.parent:
        sides = {"parent": [args.parent], "change": [args.change]}
        out = {side: {"bin": cmd[0], "results": {}, "summary": {}} for side, cmd in sides.items()}
        for w in names:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    r = run_once(sides[side], w, seed, seconds)
                    ok &= not failed(f"{side} {w}", r)
                    runs[side].append(r)
            print(f"== {w}: {args.runs} pairs, seeds {seeds[0]}..{seeds[-1]}")
            for side in sides:
                out[side]["results"][w] = runs[side]
                out[side]["summary"][w] = summarize(runs[side], bounds)
                print(f"  {side}")
                report(out[side]["summary"][w], bounds)
            sys.stdout.flush()
        result = {"seconds": seconds, "seed0": args.seed0, "runs": args.runs, **out}
    else:
        cmd = [args.bin] if args.bin else bench["command"]
        results, summary = {}, {}
        for w in names:
            runs = [run_once(cmd, w, seed, seconds) for seed in seeds]
            for r in runs:
                ok &= not failed(w, r)
            results[w] = runs
            summary[w] = summarize(runs, bounds)
            print(f"== {w}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
            ok &= report(summary[w], bounds)
            sys.stdout.flush()
        result = {"seconds": seconds, "seed0": args.seed0, "runs": args.runs,
                  "summary": summary, "results": results}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
