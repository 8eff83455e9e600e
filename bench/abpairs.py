#!/usr/bin/env python3
"""A/B comparison of two perfbench builds in alternating pairs.

Runs two builds of perfbench/main.exe on the same workload, seed and run
length, N pairs, alternating which side runs first (A,B then B,A ...), so
that a drift of the host's speed lands on both sides alike.  Then prints,
for every end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the change of the medians and how many pairs B won (better in
the metric's own direction), and the same for the raw wall time and the
measured host speed, which perfbench prints next to the calibrated
metrics.  A work-tick or fingerprint line that differs between the sides
is reported: the two builds then did not do the same work.

  python3 bench/abpairs.py A/main.exe B/main.exe --workload grid-relax \\
      --seed 4242 --seconds 32 --pairs 10

Build each side first (dune build perfbench/main.exe in its checkout).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RAW = re.compile(r"^# raw wall ([0-9.]+) s, raw set-up ([0-9.]+) s, "
                 r"host speed ([0-9.]+)")
WORK = re.compile(r"^# work ticks .*$")


def run(exe, args):
    out = subprocess.run([exe] + args, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    work = None
    for line in lines:
        m = RAW.match(line)
        if m:
            values["raw_wall_s"] = float(m.group(1))
            values["host_speed"] = float(m.group(3))
        if WORK.match(line):
            work = line
    return values, work


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", help="perfbench main.exe of side A (the baseline)")
    p.add_argument("b", help="perfbench main.exe of side B (the change)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", default="4242")
    p.add_argument("--seconds", default="32")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--benchmark", default=os.path.join(HERE, "..",
                                                       "BENCHMARK.json"))
    opts = p.parse_args()
    with open(opts.benchmark) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    better["raw_wall_s"] = "lower"
    better["host_speed"] = "higher"
    args = ["--workload", opts.workload, "--seed", opts.seed,
            "--seconds", opts.seconds, "--trace", "0"]
    sides = {"A": (opts.a, []), "B": (opts.b, [])}
    works = {"A": set(), "B": set()}
    for k in range(opts.pairs):
        order = ["A", "B"] if k % 2 == 0 else ["B", "A"]
        for side in order:
            values, work = run(sides[side][0], args)
            sides[side][1].append(values)
            works[side].add(work)
        a, b = sides["A"][1][-1], sides["B"][1][-1]
        print("# pair %d: arrivals_per_s A %.4g B %.4g, raw wall A %.4g B %.4g"
              % (k + 1, a.get("arrivals_per_s", 0), b.get("arrivals_per_s", 0),
                 a.get("raw_wall_s", 0), b.get("raw_wall_s", 0)),
              file=sys.stderr, flush=True)
    if works["A"] != works["B"] or len(works["A"]) != 1:
        print("# WORK DIFFERS: A %s / B %s" % (sorted(map(str, works["A"])),
                                               sorted(map(str, works["B"]))))
    else:
        print("# same work on both sides: %s" % next(iter(works["A"])))
    print("# %s seed %s, %s s, %d alternating pairs"
          % (opts.workload, opts.seed, opts.seconds, opts.pairs))
    print("%-18s %28s %28s %8s %6s" % ("metric", "A median [q1, q3]",
                                       "B median [q1, q3]", "change", "B wins"))
    for name in list(better):
        xa = [v[name] for v in sides["A"][1] if name in v]
        xb = [v[name] for v in sides["B"][1] if name in v]
        if not xa or len(xa) != len(xb):
            continue
        sign = 1.0 if better[name] == "higher" else -1.0
        wins = sum(1 for u, v in zip(xa, xb) if sign * (v - u) > 0)
        ma, mb = quantile(xa, 0.5), quantile(xb, 0.5)
        change = (mb - ma) / ma * 100.0 if ma != 0 else 0.0
        fmt = lambda xs: "%.5g [%.5g, %.5g]" % (
            quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
        print("%-18s %28s %28s %+7.2f%% %3d/%d"
              % (name, fmt(xa), fmt(xb), change, wins, len(xa)))


if __name__ == "__main__":
    main()
