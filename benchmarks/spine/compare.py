#!/usr/bin/env python3
"""Compare two run-sets under the bounds of BENCHMARK.json.

    python3 benchmarks/spine/compare.py parent.json change.json

Each file is what ``runset.py`` writes (a baseline file is one too) and
must hold at least three untraced runs of a workload to compare it.  One
row is printed per (metric, workload).  A row is

* ``regressed``  - the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` - it is not, but a set's own quartile spread exceeds the
  bound, so the comparison cannot tell (unless every run of the change
  beats every run of the parent: then the row is ``ok``);
* ``ok``         - otherwise.

Exit code: 1 when any row regressed or the change failed operations the
parent did not, 0 otherwise (``--strict``: unresolved rows fail too).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Tuple

from spinebench.schema import ALIASES, load_benchmark_json
from spinebench.stats import cell_values, quartile_spread

MIN_RUNS = 3


def cells(path: str) -> Tuple[Dict[Tuple[str, str], List[float]], Dict[str, float]]:
    """``(metric, workload) -> values`` over the untraced runs of a run-set,
    and per workload the share of operations that failed."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    attempted: Dict[str, int] = {}
    failed: Dict[str, int] = {}
    for run in runs:
        if run["trace"] == 0:
            workload = run["workload"]
            attempted[workload] = attempted.get(workload, 0) + run["attempted"]
            failed[workload] = failed.get(workload, 0) + run["failed"]
    shares = {w: failed[w] / max(1, attempted[w]) for w in attempted}
    return cell_values(runs), shares


def worsening(parent: float, change: float, better: str) -> float:
    """By what share of the parent's median the change is worse (< 0: better)."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def all_better(parent: List[float], change: List[float], better: str) -> bool:
    if better == "lower":
        return max(change) < min(parent)
    return min(change) > max(parent)


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Tuple[str, float, float]:
    worse = worsening(statistics.median(parent), statistics.median(change), better)
    spread = max(quartile_spread(parent), quartile_spread(change))
    if worse > bound:
        return "regressed", worse, spread
    if spread > bound and not all_better(parent, change, better):
        return "unresolved", worse, spread
    return "ok", worse, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on unresolved rows too")
    args = parser.parse_args(argv)

    spec = load_benchmark_json()
    parent, parent_failed = cells(args.parent)
    change, change_failed = cells(args.change)
    counts = {"ok": 0, "unresolved": 0, "regressed": 0, "skipped": 0}
    print(f"{'metric@workload':52} {'parent':>11} {'change':>11} {'worse':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (metric["name"], workload)
            a, b = parent.get(key, []), change.get(key, [])
            alias = ALIASES.get(workload, {}).get(metric["name"])
            label = f"{metric['name']}@{workload}" + (f" ({alias.name})" if alias else "")
            if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
                counts["skipped"] += 1
                print(f"{label:52} needs {MIN_RUNS} runs per side, has {len(a)} and {len(b)}")
                continue
            state, worse, spread = verdict(a, b, metric["better"], metric["bound"])
            counts[state] += 1
            print(f"{label:52} {statistics.median(a):11.5g} {statistics.median(b):11.5g} "
                  f"{worse:+8.1%} {spread:7.1%} {metric['bound']:6.0%}  {state}")
        before, after = parent_failed.get(workload, 0.0), change_failed.get(workload, 0.0)
        state = "regressed" if after > before else "ok"
        counts[state] += 1
        print(f"{'failed_share@' + workload:52} {before:11.5g} {after:11.5g} "
              f"{'':8} {'':7} {'0%':>6}  {state}")
    print(", ".join(f"{count} {state}" for state, count in counts.items()))
    if counts["regressed"] or (args.strict and counts["unresolved"]):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
