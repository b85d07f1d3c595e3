"""Compare two result sets of the benchmark.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `run.py --out FILE` appended, one run per
line, in the order run. For each workload and metric found in both sets it
prints both medians with their quartiles, the ratio of the medians with its
base, and how many pairs the new set won: the i-th base run is paired with
the i-th new run, and a tie counts for neither.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, metric): [values in run order]}"""
    out = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, m in record["result"]["metrics"].items():
                    out[(record["workload"], name)].append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("%-12s %-34s %28s %28s %8s %6s" % (
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "new/base", "won"))
    for key in sorted(base.keys() & new.keys()):
        workload, metric = key
        b, n = base[key], new[key]
        bm, bq1, bq3 = summary(b)
        nm, nq1, nq3 = summary(n)
        sign = 1 if better.get(metric, "lower") == "lower" else -1
        won = sum(1 for x, y in zip(b, n) if sign * (y - x) < 0)
        ratio = "%.3f" % (nm / bm) if bm else "n/a"
        print("%-12s %-34s %12.5g [%.4g, %.4g] %12.5g [%.4g, %.4g] %8s %3d/%-3d" % (
            workload, metric, bm, bq1, bq3, nm, nq1, nq3, ratio, won, min(len(b), len(n))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
