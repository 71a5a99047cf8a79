#!/usr/bin/env python3
"""Collect a run-set: N runs of every workload, for compare.py and baselines.

    python3 benchmarks/spine/runset.py --runs 5 --traced 1 --out benchmarks/spine/baselines/seed-<machine>.json

Run *i* of a workload uses seed ``--seed + i``.  Runs are interleaved
across workloads (round-robin), so slow drift of the machine lands on all
of them alike.  The file holds every run as printed, plus, per (metric,
workload), the median and quartiles over the set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

from spinebench import REPO_ROOT, SPINE_DIR
from spinebench.schema import WORKLOADS, load_benchmark_json
from spinebench.stats import cell_values, quartile_spread


def machine() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True,
        ).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", False
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def one_run(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    done = subprocess.run(
        [sys.executable, str(SPINE_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace, exit_code=done.returncode)
    return result


def summarize(runs: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per ``metric@workload`` over the untraced runs: median, quartiles, spread."""
    summary = {}
    for (name, workload), values in sorted(cell_values(runs).items()):
        entry = {"n": len(values), "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=quartile_spread(values))
        summary[f"{name}@{workload}"] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = args.seconds or float(load_benchmark_json()["run_seconds"])

    runs: List[Dict[str, object]] = []
    for trace, count in ((0, args.runs), (1, args.traced)):
        for index in range(count):
            for workload in args.workloads:
                run = one_run(workload, args.seed + index, seconds, trace)
                runs.append(run)
                print(f"{workload} seed={run['seed']} trace={trace} "
                      f"correct={run['correct']}", flush=True)
    report = {
        "machine": machine(),
        "run_seconds": seconds,
        "summary": summarize(runs),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for cell, entry in report["summary"].items():
        print(f"{cell}: median={entry['median']:.6g} "
              f"spread={entry.get('spread', 0.0):.3f} n={entry['n']}")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
