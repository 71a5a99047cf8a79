#!/usr/bin/env python3
"""Snapshot-store benchmark: cold-start build vs mmap load, and ship cost.

Measures what the ``repro.storage.store`` persistence layer buys:

* **cold-start cost** — compiling ``Graph`` into a ``GraphSnapshot``
  (``GraphSnapshot.build``) vs loading the stored file through the store
  (fingerprint + validate + ``mmap``), and vs a raw ``read_snapshot`` attach
  (what a pool worker pays to re-attach by path);
* **per-worker ship cost** — the pickled size/time of a freshly built
  snapshot (what the process pool used to push through every worker's pipe)
  vs a store-backed snapshot, which pickles as a path stub and re-attaches
  by ``mmap`` in the worker.

Correctness is a hard requirement: the loaded snapshot must produce
*identical* ``EMResult``\\ s (pairs, statistics, simulated seconds) to the
freshly built one for every registered backend, or the script exits
non-zero.  The same gate then runs on the store's second file kind: the
graph takes a mutation window, the patched snapshot is written as a delta
file, and every backend on the delta-loaded snapshot must return the pairs
and statistics of a fresh build of the mutated graph.  (Simulated seconds
are left out of that comparison only: placement hashes interned ids, and a
patched snapshot's ids are its history's, not the canonical ones.)  Timings
are written to ``BENCH_store.json``; CI uploads the artifact on every run.

Run with:  python benchmarks/bench_snapshot_store.py --out BENCH_store.json
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import sys
import tempfile
import time
from typing import Dict

from repro.api.registry import ALGORITHMS
from repro.api.session import MatchSession
from repro.core.parser import parse_graph, serialize_graph
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.mapreduce.haloop_cache import WorkerCache
from repro.storage import GraphSnapshot, SnapshotStore, graph_fingerprint, read_snapshot

#: The load-vs-build speedup a warm store is expected to deliver.  The store
#: load includes fingerprinting the live graph (O(|G|), the price of knowing
#: the file matches); the raw per-worker attach cost is reported separately
#: and is ~5x cheaper than a build.
REQUIRED_SPEEDUP = 1.2


def _best_of(fn, repeats: int) -> float:
    """The best (minimum) wall time of *repeats* runs of *fn*."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _result_key(result) -> tuple:
    """Everything an EMResult pins down besides measured wall clock."""
    return (
        sorted(result.pairs()),
        result.stats.as_dict(),
        round(result.simulated_seconds, 9),
    )


def run_bench(scale: float, repeats: int, store_dir: str) -> Dict:
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

    report: Dict = {
        "graph": graph.stats(),
        "keys": keys.cardinality,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "required_speedup": REQUIRED_SPEEDUP,
        "ok": True,
    }

    store = SnapshotStore(store_dir)
    built = GraphSnapshot.build(graph)
    path = store.save(built, graph=graph)
    report["file_size_bytes"] = os.path.getsize(path)
    report["fingerprint"] = graph_fingerprint(graph)

    # ---- cold start: build vs store load vs raw attach ----------------- #
    build_seconds = _best_of(lambda: GraphSnapshot.build(graph), repeats)
    load_seconds = _best_of(lambda: store.load(graph), repeats)
    attach_seconds = _best_of(lambda: read_snapshot(path), repeats)
    report["cold_start"] = {
        "build_seconds": round(build_seconds, 6),
        "store_load_seconds": round(load_seconds, 6),
        "attach_seconds": round(attach_seconds, 6),
        "load_vs_build_speedup": (
            round(build_seconds / load_seconds, 3) if load_seconds > 0 else 0.0
        ),
        "attach_vs_build_speedup": (
            round(build_seconds / attach_seconds, 3) if attach_seconds > 0 else 0.0
        ),
    }
    report["meets_required_speedup"] = (
        report["cold_start"]["load_vs_build_speedup"] >= REQUIRED_SPEEDUP
    )

    # ---- per-worker ship cost: pickled arrays vs path stub -------------- #
    fresh = GraphSnapshot.build(graph)  # never stored: pickles as full arrays
    loaded = store.load(graph)          # store-backed: pickles as a path stub
    bytes_pickle_seconds = _best_of(lambda: pickle.dumps(fresh), repeats)
    stub_pickle_seconds = _best_of(lambda: pickle.dumps(loaded), repeats)
    cache_built, cache_stored = WorkerCache(2), WorkerCache(2)
    cache_built.put("snapshot", fresh, records=0)
    cache_stored.put("snapshot", loaded, records=0)
    report["ship_cost"] = {
        "pickled_bytes": len(pickle.dumps(fresh)),
        "path_stub_bytes": len(pickle.dumps(loaded)),
        "pickle_seconds": round(bytes_pickle_seconds, 6),
        "stub_pickle_seconds": round(stub_pickle_seconds, 6),
        "attach_seconds_per_worker": round(attach_seconds, 6),
        # what the MR driver's Haloop worker cache pushes through the pipe
        "worker_cache_bytes_built": cache_built.shipped_bytes(),
        "worker_cache_bytes_store": cache_stored.shipped_bytes(),
    }

    # ---- identity: loaded snapshot == built snapshot, every backend ----- #
    session_built = MatchSession(graph).with_keys(keys)
    # over the graph as a restarted process parses it, which holds no
    # snapshot: a session over ``graph`` itself would read the one it holds
    restarted = parse_graph(serialize_graph(graph))
    session_loaded = MatchSession(restarted, snapshot_store=store_dir).with_keys(keys)
    identical = True
    divergent = []
    for name in ALGORITHMS:
        built_result = session_built.run(name, processors=4)
        loaded_result = session_loaded.run(name, processors=4)
        if _result_key(built_result) != _result_key(loaded_result):
            identical = False
            divergent.append(name)
    if session_loaded.cache_info().store_hits < 1:
        identical = False
        divergent.append("<store was never hit>")
    report["identity"] = {
        "backends": list(ALGORITHMS),
        "identical": identical,
        "divergent": divergent,
        "store_hits": session_loaded.cache_info().store_hits,
    }
    # ---- identity, second file kind: a delta-loaded snapshot ------------ #
    entities = sorted(graph.entity_ids())
    for index, subject in enumerate(entities[:: max(1, len(entities) // 24)]):
        graph.add_value(subject, f"window_tag_{index % 3}", f"w{index % 5}")
    graph.retype_entity(entities[0], graph.entity_type(entities[-1]))
    graph.add_entity("window_entity", graph.entity_type(entities[1]))
    graph.add_edge("window_entity", "window_ref", entities[2])
    patched = built.patched(graph, graph.touched_since(built.version))
    delta_path = store.patch(patched, base=built, fingerprint=graph.content_fingerprint())
    session_rebuilt = MatchSession(graph).with_keys(keys)
    restarted = parse_graph(serialize_graph(graph))  # as above
    session_delta = MatchSession(restarted, snapshot_store=store_dir).with_keys(keys)
    delta_divergent = []
    for name in ALGORITHMS:
        rebuilt_result = session_rebuilt.run(name, processors=4)
        delta_result = session_delta.run(name, processors=4)
        if _result_key(rebuilt_result)[:2] != _result_key(delta_result)[:2]:
            delta_divergent.append(name)
    delta_info = session_delta.cache_info()
    if delta_info.store_hits < 1 or not delta_info.snapshot_overlay_rows:
        delta_divergent.append("<the delta file was never loaded>")
    report["delta_identity"] = {
        "identical": not delta_divergent,
        "divergent": delta_divergent,
        "overlay_rows": patched.overlay_rows,
        "delta_file_bytes": os.path.getsize(delta_path),
        "delta_load_seconds": round(_best_of(lambda: store.load(graph), repeats), 6),
    }
    # identity is the hard gate; timing lives in the artifact trajectory
    # (enforce locally with --require-speedup) so a noisy CI runner cannot
    # fail an otherwise-green commit
    report["ok"] = identical and not delta_divergent
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=4.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_store.json")
    parser.add_argument(
        "--store-dir",
        default=None,
        help="snapshot store directory (default: a temporary directory)",
    )
    parser.add_argument(
        "--require-speedup",
        action="store_true",
        help=f"also fail when the load-vs-build speedup is below {REQUIRED_SPEEDUP}x "
        "(off by default so noisy CI runners only gate on correctness)",
    )
    args = parser.parse_args(argv)

    if args.store_dir is not None:
        report = run_bench(args.scale, args.repeats, args.store_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-snapstore-") as store_dir:
            report = run_bench(args.scale, args.repeats, store_dir)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")
    if not report["ok"]:
        print(
            "FAIL: store-loaded snapshot diverged from the built one "
            f"(backends: {report['identity']['divergent']}; "
            f"delta-loaded: {report['delta_identity']['divergent']})",
            file=sys.stderr,
        )
        return 1
    if args.require_speedup and not report["meets_required_speedup"]:
        print(
            f"FAIL: load-vs-build speedup "
            f"{report['cold_start']['load_vs_build_speedup']}x is below the "
            f"required {REQUIRED_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
