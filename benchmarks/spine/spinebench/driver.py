"""Dispatch: run a workload here, or fan out to one child per workload.

An untraced run of one workload happens in this interpreter (the caller
already started a fresh one), so ``peak_rss_mb`` is that workload's own.
A traced run prints *every* per-layer metric, and each of those belongs to
the one workload that exercises its layer, so it starts one child per
workload: the named workload at full length, the others as short probes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import SPINE_DIR
from .harness import Params
from .schema import ALIASES, WORKLOADS, Outcome, load_benchmark_json
from .trace import Tracer

#: scratch space and span files; inside the checkout, ignored by git
WORK_DIR = SPINE_DIR / "_work"
#: seconds a workload measures when it only runs to fill in its layers
PROBE_SECONDS = 2.0
SMOKE_SECONDS = 0.3


def _runner(workload: str):
    if workload == "batch_cold":
        from .batch import run_cold
        return run_cold
    if workload == "batch_warm_backends":
        from .batch import run_warm
        return run_warm
    if workload == "serve_mixed":
        from .serve import run_serve
        return run_serve
    from .ingest import run_ingest
    return run_ingest


def run_here(workload: str, seed: int, seconds: float, smoke: bool, traced: bool) -> Outcome:
    """Run *workload* in this process; writes its span file when traced."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    # serve_mixed stitches server-side wall-clock stamps into its spans
    clock = time.time if workload == "serve_mixed" else time.perf_counter
    tracer = Tracer(workload, enabled=traced, clock=clock)
    try:
        params = Params(seed=seed, seconds=seconds, smoke=smoke, traced=traced,
                        workdir=Path(workdir))
        outcome = _runner(workload)(params, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if traced:
        trace_file = WORK_DIR / f"trace-{workload}.jsonl"
        tracer.write(trace_file)
        outcome.trace_file = str(trace_file)
    return outcome


# --------------------------------------------------------------------------- #
# printing
# --------------------------------------------------------------------------- #


def _units() -> Dict[str, str]:
    spec = load_benchmark_json()
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def _print_end_to_end(outcome: Outcome, units: Dict[str, str]) -> None:
    print(f"== {outcome.workload}: end to end")
    for name, measured in outcome.end_to_end.items():
        line = f"{name} = {measured.value:.6g} {units[name]}"
        if measured.n:
            line += f"  (n={measured.n})"
        alias = ALIASES[outcome.workload].get(name)
        if alias is not None:
            line += (
                f"  |  {alias.name} = {measured.value * alias.scale:.6g} "
                f"{alias.unit}  -- {alias.meaning}"
            )
        if measured.note:
            line += f"  [{measured.note}]"
        print(line)
    _print_failures(outcome)


def _print_failures(outcome: Outcome) -> None:
    share = outcome.failed / max(1, outcome.attempted)
    print(f"failed_share = {share:.6g} ratio  ({outcome.failed} of {outcome.attempted})")
    for failure in outcome.failures:
        print(f"  FAILED: {failure}")


def _print_per_layer(metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print("== per layer")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units.get(name, '?')}")


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units.get(name, "")}
                for name, value in metrics.items()
            },
        }
    )


# --------------------------------------------------------------------------- #
# children
# --------------------------------------------------------------------------- #


def _child(workload: str, args, seconds: float, *, own_layers: bool,
           trace: int) -> Tuple[int, Optional[Dict[str, object]], str]:
    command = [
        sys.executable, str(SPINE_DIR / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if own_layers:
        command.append("--own-layers")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, "\n".join(lines[:-1])


def _traced(args, seconds: float, units: Dict[str, str], only: Optional[str]) -> Tuple[bool, int, int, Dict[str, float]]:
    """One traced child per workload; returns the merged per-layer metrics.

    With *only* set, that workload runs for *seconds* and the rest are
    probes.  ``trace.overhead_ratio`` is the named workload's (with
    ``all``: the largest of the four).
    """
    merged: Dict[str, float] = {}
    overheads: Dict[str, float] = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        length = seconds if only in (None, workload) else PROBE_SECONDS
        code, result, _ = _child(workload, args, length, own_layers=True, trace=1)
        if code != 0 or result is None:
            correct = False
            print(f"error: traced child {workload} exited with {code}", file=sys.stderr)
            if result is None:
                continue
        correct = correct and bool(result["correct"])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            if name == "trace.overhead_ratio":
                overheads[workload] = entry["value"]
            else:
                merged[name] = entry["value"]
    if overheads:
        merged["trace.overhead_ratio"] = (
            overheads.get(only) if only in overheads else max(overheads.values())
        )
        for workload, ratio in overheads.items():
            print(f"trace.overhead_ratio@{workload} = {ratio:.6g} ratio")
    return correct, attempted, failed, merged


def _missing(metrics: Dict[str, float], section: str) -> List[str]:
    spec = load_benchmark_json()
    return [m["name"] for m in spec[section] if m["name"] not in metrics]


# --------------------------------------------------------------------------- #
# entry
# --------------------------------------------------------------------------- #


def main(args) -> int:
    spec = load_benchmark_json()
    units = _units()
    seconds = args.seconds
    if args.smoke:
        seconds = SMOKE_SECONDS
    elif seconds is None:
        seconds = float(spec["run_seconds"])

    if args.workload == "all":
        return _run_all(args, seconds, units)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2

    if args.trace == 0 or args.own_layers:
        outcome = run_here(args.workload, args.seed, seconds, args.smoke,
                           traced=bool(args.trace))
        if args.trace:
            _print_failures(outcome)
            if outcome.trace_file:
                print(f"spans written to {outcome.trace_file}")
            metrics = dict(outcome.per_layer)
        else:
            _print_end_to_end(outcome, units)
            metrics = {name: m.value for name, m in outcome.end_to_end.items()}
            missing = _missing(metrics, "end_to_end")
            if missing:
                print(f"error: metrics not measured: {missing}", file=sys.stderr)
                return 1
        print(_result_line(outcome.failed == 0, outcome.attempted,
                           outcome.failed, metrics, units))
        return 0 if outcome.failed == 0 else 1

    correct, attempted, failed, merged = _traced(args, seconds, units, args.workload)
    _print_per_layer(merged, units)
    missing = _missing(merged, "per_layer")
    if missing:
        print(f"error: per-layer metrics not measured: {missing}", file=sys.stderr)
        correct = False
    print(f"spans written to {WORK_DIR}/trace-<workload>.jsonl")
    print(_result_line(correct and failed == 0, max(1, attempted), failed, merged, units))
    return 0 if correct and failed == 0 else 1


def _run_all(args, seconds: float, units: Dict[str, str]) -> int:
    """Every workload untraced, then (``--trace 1``) every workload traced."""
    metrics: Dict[str, float] = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        code, result, text = _child(workload, args, seconds, own_layers=False, trace=0)
        print(text)
        if result is None:
            print(f"error: {workload} printed no result (exit {code})", file=sys.stderr)
            correct = False
            continue
        correct = correct and code == 0 and bool(result["correct"])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            metrics[f"{name}@{workload}"] = entry["value"]
            units[f"{name}@{workload}"] = entry["unit"]
    metrics["failed_share"] = failed / max(1, attempted)
    units["failed_share"] = "ratio"
    if args.trace:
        ok, more_attempted, more_failed, merged = _traced(args, seconds, units, None)
        _print_per_layer(merged, units)
        correct = correct and ok and not _missing(merged, "per_layer")
        attempted += more_attempted
        failed += more_failed
        metrics.update(merged)
        print(f"spans written to {WORK_DIR}/trace-<workload>.jsonl")
    print(f"failed_share = {metrics['failed_share']:.6g} ratio  ({failed} of {attempted})")
    print(_result_line(correct and failed == 0, max(1, attempted), failed, metrics, units))
    return 0 if correct and failed == 0 else 1
