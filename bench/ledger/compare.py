#!/usr/bin/env python3
"""Compares two sets of ledger runs, metric by metric.

    python3 bench/ledger/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/ledger/compare.py --repeat A_DIR B_DIR

Each directory holds ledger.json files (searched recursively), one per run,
as `run.py --seed N --out DIR/run-N` writes them. Runs pair up in sorted
path order, so run parent and change alternately with the same seeds.
Bounds and directions come from BENCHMARK.json.

For every (workload, end-to-end metric) the verdict is:
  better      the change wins at least 9 of 10 pairs (ties count for
              neither), over at least 10 pairs, and the medians differ by
              more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  a side's spread (IQR / median) exceeds the bound, unless
              every change run reads better than every parent run;
  same        otherwise.

--repeat checks that two sets of runs of the same code agree: every metric
must have both spreads within its bound and medians within the bound of
each other ("same"); anything else is "unresolved" or "differ". The exit
status is non-zero unless every pair of the comparison is "same" (--repeat)
or nothing is "worse" (default).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(directory):
    runs = []
    for path in sorted(Path(directory).rglob("ledger.json")):
        with open(path, encoding="utf-8") as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit(f"compare.py: no ledger.json under {directory}")
    return runs


def values(runs, workload, metric):
    return [r["workloads"][workload]["metrics"][metric]["value"]
            for r in runs]


def spread(v):
    """Interquartile range and its share of the median.

    Quartiles are interpolated between the observed runs ("inclusive");
    with five runs the default method would extrapolate them to the
    extreme runs, so one outlier alone would decide the spread.
    """
    if len(v) < 2:
        return 0.0, float("inf")
    q = statistics.quantiles(v, n=4, method="inclusive")
    med = statistics.median(v)
    return q[2] - q[0], (q[2] - q[0]) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    med_p, med_c = statistics.median(parent), statistics.median(change)
    gap = sign * (med_c - med_p) / abs(med_p)  # > 0: change is better
    iqr_p, spread_p = spread(parent)
    _, spread_c = spread(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if spread_p > bound or spread_c > bound:
        return ("better" if all_better and len(pairs) >= 10
                else "unresolved"), gap
    if gap < -bound:
        return "worse", gap
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(med_c - med_p) > iqr_p and gap > 0):
        return "better", gap
    return "same", gap


def repeat_verdict(a, b, bound):
    _, spread_a = spread(a)
    _, spread_b = spread(b)
    drift = abs(statistics.median(b) - statistics.median(a)) / abs(
        statistics.median(a))
    if spread_a > bound or spread_b > bound:
        return "unresolved", drift
    return ("same" if drift <= bound else "differ"), drift


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--repeat", action="store_true",
                   help="both directories hold runs of the same code")
    p.add_argument("first", help="parent runs (or set A with --repeat)")
    p.add_argument("second", help="change runs (or set B with --repeat)")
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    first, second = load_runs(args.first), load_runs(args.second)
    print(f"{len(first)} runs vs {len(second)} runs"
          + ("" if args.repeat or min(len(first), len(second)) >= 10
             else " (fewer than 10 pairs: no gain can be claimed)"))
    metrics = spec["end_to_end"]
    header = f"{'workload':15}" + "".join(f" {m['name']:>22}" for m in metrics)
    print(header)
    bad = 0
    for w in spec["workloads"]:
        name = w["name"]
        cells = []
        for m in metrics:
            a = values(first, name, m["name"])
            b = values(second, name, m["name"])
            if args.repeat:
                v, d = repeat_verdict(a, b, m["bound"])
                bad += v != "same"
                cells.append(f"{v} ({100 * d:.1f}%)")
            else:
                v, d = verdict(a, b, m["better"], m["bound"])
                bad += v == "worse"
                cells.append(f"{v} ({100 * d:+.1f}%)")
        print(f"{name:15}" + "".join(f" {c:>22}" for c in cells))
    print("\nBounds: " + ", ".join(f"{m['name']} {100 * m['bound']:g}%"
                                   for m in metrics))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
