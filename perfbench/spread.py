#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds 30]
                                [--trace 0] [--sets 1]

For every metric and every set of runs: the median of its per-seed values
and the quartile spread, (Q3 - Q1) / median with statistics.quantiles(values,
n=4), beside the metric's bound from BENCHMARK.json. A spread under a third
of the bound leaves room for run-to-run noise; a spread over it makes the
bound unenforceable.

With --sets 2 the two sets run the same seeds, alternating run by run, and
the last column is how much worse the second set's median is than the
first's, as a share of the first (negative: better). Two sets of the same
code should agree within each bound.

Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(vals):
    med = statistics.median(vals)
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
    return med, ((q[2] - q[0]) / med if med else 0.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    values = [{} for _ in range(args.sets)]
    for seed in seeds(args.seeds):
        for s in range(args.sets):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit("set %d seed %d: exit %d" % (s + 1, seed, out.returncode))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            sys.stderr.write("set %d seed %d: %s\n" % (s + 1, seed, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())))
            for name, m in result["metrics"].items():
                values[s].setdefault(name, []).append(m["value"])

    head = "%-36s" % "metric"
    for s in range(args.sets):
        head += " %14s %8s" % ("median%d" % (s + 1), "spread%d" % (s + 1))
    head += " %7s" % "bound"
    if args.sets == 2:
        head += " %8s" % "worse"
    print(head)
    for name in values[0]:
        line = "%-36s" % name
        meds = []
        for s in range(args.sets):
            med, spr = spread(values[s][name])
            meds.append(med)
            line += " %14.6g %7.2f%%" % (med, 100 * spr)
        m = spec.get(name)
        line += " %7s" % ("-" if m is None else "%.0f%%" % (100 * m["bound"]))
        if args.sets == 2 and meds[0]:
            change = (meds[1] - meds[0]) / meds[0]
            if m is not None and m["better"] == "higher":
                change = -change
            line += " %7.2f%%" % (100 * change)
        print(line)


if __name__ == "__main__":
    main()
