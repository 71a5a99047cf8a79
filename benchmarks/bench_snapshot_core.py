#!/usr/bin/env python3
"""Core storage-layer micro-benchmark: dict path vs compiled snapshot path.

Measures the two costs the ``repro.storage`` layer targets, on a synthetic
benchmark graph dense enough that d-neighbourhoods have real extent:

* **snapshot build** — the one-off cost of compiling ``Graph`` into the
  interned, CSR-backed :class:`~repro.storage.GraphSnapshot`;
* **neighbourhood extraction** — a full
  :class:`~repro.core.neighborhood.NeighborhoodIndex` precompute over every
  entity, dict-of-sets BFS vs the snapshot's integer-space BFS.

Correctness is a hard requirement: both paths must produce identical
neighbourhood sets, or the script exits non-zero; timings are recorded, not
gated.  Timings are written to
``BENCH_core.json``; CI uploads the artifact on every run, seeding the
storage layer's performance trajectory.

Run with:  python benchmarks/bench_snapshot_core.py --out BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict

from repro.core.neighborhood import NeighborhoodIndex
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.storage import GraphSnapshot, SnapshotNeighborhoodIndex


def _best_of(fn, repeats: int) -> float:
    """The best (minimum) wall time of *repeats* runs of *fn*."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_bench(scale: float, repeats: int) -> Dict:
    # radius-3 keys over a graph with enough noise edges that neighbourhoods
    # have tens of nodes — the regime the paper's d-neighbourhoods live in
    config = SyntheticConfig(
        num_keys=12,
        chain_length=3,
        radius=3,
        entities_per_type=12,
        noise_edges=150,
        scale=scale,
        seed=7,
    )
    dataset = generate_synthetic(config)
    graph, keys = dataset.graph, dataset.keys
    entities = list(graph.entity_ids())

    report: Dict = {
        "graph": graph.stats(),
        "keys": keys.cardinality,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "ok": True,
    }

    # ---- snapshot build (the one-off compilation cost) ----------------- #
    build_seconds = _best_of(lambda: GraphSnapshot.build(graph), repeats)
    snapshot = GraphSnapshot.build(graph)
    report["snapshot_build_seconds"] = round(build_seconds, 6)

    # ---- neighbourhood extraction: dict BFS vs integer BFS ------------- #
    def extract_dict() -> NeighborhoodIndex:
        index = NeighborhoodIndex(graph, keys)
        index.precompute(entities)
        return index

    def extract_snapshot() -> SnapshotNeighborhoodIndex:
        index = SnapshotNeighborhoodIndex(snapshot, keys)
        index.precompute(entities)
        return index

    dict_index, snap_index = extract_dict(), extract_snapshot()
    neighborhoods_identical = all(
        dict_index.nodes(entity) == snap_index.nodes(entity) for entity in entities
    )
    neigh_old = _best_of(extract_dict, repeats)
    neigh_new = _best_of(extract_snapshot, repeats)
    report["neighborhood"] = {
        "entities": len(entities),
        "total_nodes": dict_index.total_size(),
        "dict_seconds": round(neigh_old, 6),
        "snapshot_seconds": round(neigh_new, 6),
        "speedup": round(neigh_old / neigh_new, 3) if neigh_new > 0 else 0.0,
        "identical": neighborhoods_identical,
    }

    # correctness is the hard gate; timing lives in the artifact trajectory,
    # so a noisy CI runner cannot fail an otherwise-green commit
    report["ok"] = neighborhoods_identical
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=2.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_core.json")
    args = parser.parse_args(argv)

    report = run_bench(args.scale, args.repeats)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")
    if not report["ok"]:
        print("FAIL: snapshot path diverged from the dict path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
