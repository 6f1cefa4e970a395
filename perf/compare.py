"""Compare two sets of benchmark runs, one row per workload and metric.

Usage (from the repository root)::

    python3 perf/run.py --workload paper_gpu --seed 1 --out parent.jsonl
    python3 perf/run.py --workload paper_gpu --seed 1 --out change.jsonl
    ...                                   # alternate sides, >= 10 pairs
    python3 perf/compare.py parent.jsonl change.jsonl

Each side's runs are paired in file order per workload.  Every row
reports both medians and quartiles, the change of the median, and how
many pairs each side wins (ties count for neither).  End-to-end
rows take their bound and direction from ``BENCHMARK.json`` and get a
verdict:

* ``regressed``  - B's median is worse than A's by more than the bound;
* ``unresolved`` - a side's quartile spread is wider than the bound,
  unless every run of B reads better than every run of A;
* ``improved``   - B wins at least 9 of 10 pairs and the medians differ
  by more than A's quartile spread;
* ``unchanged``  - otherwise.

Per-layer rows (from ``--trace`` runs) carry no bound and no verdict.
The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """``{(workload, trace): {metric: [values in file order]}}``."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], int(record["trace"]))
            for metric, block in record["result"]["metrics"].items():
                runs[key][metric].append(block["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a, b, better: str, bound):
    """One row's numbers and verdict (*bound* None = no verdict)."""
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):
        return sign * (x - y) < 0

    pairs = list(zip(a, b))
    b_wins = sum(beats(y, x) for x, y in pairs)
    a_wins = sum(beats(x, y) for x, y in pairs)
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    verdict = "-"
    if bound is not None:
        spread_a = (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0
        spread_b = (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0
        all_better = all(beats(y, x) for x in a for y in b)
        if worse > bound:
            verdict = "regressed"
        elif all_better and pairs:
            verdict = "improved"
        elif max(spread_a, spread_b) > bound:
            verdict = "unresolved"
        elif (
            pairs
            and b_wins >= 0.9 * len(pairs)
            and abs(med_b - med_a) > qa[2] - qa[0]
        ):
            verdict = "improved"
        else:
            verdict = "unchanged"
    return {
        "a": qa,
        "b": qb,
        "change": (med_b - med_a) / abs(med_a) if med_a else 0.0,
        "a_wins": a_wins,
        "b_wins": b_wins,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="JSON lines of side A (the parent)")
    parser.add_argument("b", help="JSON lines of side B (the change)")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        bench = json.load(fh)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    layered = {m["name"]: m for m in bench["per_layer"]}
    runs_a, runs_b = load(args.a), load(args.b)

    print(
        f"{'workload':<14} {'metric':<34} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8} {'wins A/B':>9}  verdict"
    )
    regressed = False
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, trace = key
        for metric in runs_a[key]:
            spec = (layered if trace else gated).get(metric)
            if spec is None or metric not in runs_b[key]:
                continue
            row = compare(
                runs_a[key][metric], runs_b[key][metric], spec["better"],
                None if trace else spec["bound"],
            )
            regressed |= row["verdict"] == "regressed"
            fa = "{:.4g} [{:.4g}, {:.4g}]".format(row["a"][1], row["a"][0], row["a"][2])
            fb = "{:.4g} [{:.4g}, {:.4g}]".format(row["b"][1], row["b"][0], row["b"][2])
            print(
                f"{workload:<14} {metric:<34} {fa:>30} {fb:>30} "
                f"{row['change']:>+8.1%} {row['a_wins']:>4}/{row['b_wins']:<4}  "
                f"{row['verdict']}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
