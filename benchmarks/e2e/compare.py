"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A B

A (the parent) and B (the change) are ``--out`` directories of
``run.py``; every untraced ``record.json`` below them is read.  One row
per (workload, metric) gives each side's median, quartiles and run
count, and a verdict against the metric's bound in ``BENCHMARK.json``:

``unresolved``
    either side's spread (interquartile range / median) is wider than
    the bound, and not every B run beats every A run;
``worse``
    B's median is worse than A's by more than the bound (for
    ``setup_s``, also by more than 50 ms);
``better``
    B wins at least 9/10 of all (A, B) pairs, ties counting for
    neither, and the medians differ by more than A's interquartile
    range;
``unchanged``
    otherwise.

It also checks that every record reports the same outputs (node and
edge counts, DAG digests, compile results) for the same key, and that
no record is invalid for its host.  Exit status 1 when a row is worse,
outputs differ, or a record failed or is invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
#: set-up time must also worsen by this much before it counts
SETUP_FLOOR_S = 0.05


def load_records(directory: str) -> List[Dict[str, object]]:
    records = []
    for folder, _dirs, files in os.walk(directory):
        if "record.json" in files:
            with open(os.path.join(folder, "record.json"), encoding="utf-8") as handle:
                records.append(json.load(handle))
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str, bound: float, name: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    wins = sum(1 for x in a for y in b if sign * (y - x) > 0)
    if all(sign * (y - x) > 0 for x in a for y in b) and abs(b2 - a2) > a3 - a1:
        return "better"
    if a3 - a1 > max(bound * abs(a2), floor) or b3 - b1 > max(bound * abs(b2), floor):
        return "unresolved"
    if sign * (a2 - b2) > max(bound * abs(a2), floor):
        return "worse"
    if wins >= 0.9 * len(a) * len(b) and abs(b2 - a2) > a3 - a1:
        return "better"
    return "unchanged"


def output_conflicts(records: List[Dict[str, object]]) -> List[str]:
    seen: Dict[str, object] = {}
    conflicts = []
    for record in records:
        for key, value in record["outputs"].items():
            if key in seen and seen[key] != value:
                conflicts.append(f"{key}: {seen[key]} != {value} ({record['workload']})")
            seen.setdefault(key, value)
    return conflicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of run.py records.")
    parser.add_argument("a", help="--out directory of the parent's runs")
    parser.add_argument("b", help="--out directory of the change's runs")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    sides = {}
    for label, directory in (("A", args.a), ("B", args.b)):
        sides[label] = [r for r in load_records(directory) if not r["trace"] and not r["smoke"]]
        if not sides[label]:
            print(f"no untraced records under {directory}", file=sys.stderr)
            return 2
    status = 0
    for label, records in sides.items():
        for record in records:
            if not record["correct"] or not record["valid"]:
                status = 1
                print(f"{label}: {record['workload']} seed={record['seed']} run={record['run']} "
                      f"{'failed' if not record['correct'] else 'invalid on its host'}")
    workloads = sorted({r["workload"] for r in sides["A"]} & {r["workload"] for r in sides["B"]})
    print(f"{'workload':16} {'metric':12} {'A median [q1, q3] n':>34} {'B median [q1, q3] n':>34} {'change':>8}  verdict")
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in sides["A"] if r["workload"] == workload and r["correct"]]
            b = [r["metrics"][name]["value"] for r in sides["B"] if r["workload"] == workload and r["correct"]]
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"], name)
            if result == "worse":
                status = 1
            cells = []
            for values in (a, b):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}")
            change = quartiles(b)[1] / quartiles(a)[1] - 1.0
            print(f"{workload:16} {name:12} {cells[0]:>34} {cells[1]:>34} {change:>+8.1%}  {result}")
    conflicts = output_conflicts(sides["A"] + sides["B"])
    if conflicts:
        status = 1
        print(f"{len(conflicts)} output(s) differ:")
        for conflict in conflicts:
            print(f"  {conflict}")
    else:
        keys = {key for r in sides["A"] + sides["B"] for key in r["outputs"]}
        print(f"outputs identical across all records ({len(keys)} keys)")
    return status


if __name__ == "__main__":
    sys.exit(main())
