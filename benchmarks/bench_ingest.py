#!/usr/bin/env python3
"""Streaming ingest benchmark: O(delta) artifact refresh vs rebuild-per-delta.

Two measurements, two fatal identity gates:

* **Artifact refresh** — per journalled delta, the patch path
  (``GraphSnapshot.patched`` + the O(1) fingerprint accumulator +
  ``SnapshotStore.patch`` delta file) races the rebuild path
  (``GraphSnapshot.build`` + full :func:`graph_fingerprint` recompute + full
  store save) over a range of graph scales.  **Fatal gate:** after every
  delta the patched snapshot must answer every read as the rebuilt one does
  (the object surface exactly, the integer surface after ``node_at``), and
  its canonical form (``compacted()``) must be bit-identical to the rebuilt
  one — every interning table and CSR array.  The per-delta refresh speedup
  at the largest scale is the acceptance headline; the benchmark fails below
  ``--require-refresh-speedup`` (default 10x, ``0`` disables: a patch never
  moves an id, so it costs the rows the delta touched while a rebuild costs
  the graph, and the ratio grows with the scale).

* **Sustained ingest** — an :class:`~repro.service.ingest.IngestPipeline`
  consumes a mutation stream against a blocked incremental session under a
  latency budget.  **Fatal gate:** the streamed final result must equal a
  one-shot batch run (the sequential chase on an identically mutated twin
  graph).  Mutations/sec and the p50/p95/max batch staleness are recorded as
  the headline metrics in ``BENCH_ingest.json``.

A third measurement covers the durability path added with the write-ahead
op journal:

* **Crash recovery** — the same ingest stream journalled through a
  :class:`~repro.service.wal.WriteAheadLog` under each fsync policy
  (``off`` / ``batch`` / ``always``) to price the durability overhead,
  then a simulated crash (journalled-but-unflushed tail, no clean close)
  replayed onto a fresh base graph to measure replay throughput.
  **Fatal gate:** the recovered result must be bit-identical to a batch
  run over the journalled ops and the fingerprint accumulator must match
  a full recompute.

Run with:  python benchmarks/bench_ingest.py --out BENCH_ingest.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.core.fingerprint import graph_fingerprint
from repro.datasets.synthetic import synthetic_dataset
from repro.service.ingest import IngestPipeline, apply_mutation
from repro.storage.snapshot import GraphSnapshot
from repro.storage.store import SnapshotStore

#: every pickled-core slot of a snapshot; the bit-identity gate compares all
_SNAPSHOT_SLOTS = (
    "version",
    "_node_of",
    "_id_of",
    "_num_entities",
    "_etype_of",
    "_type_ranges",
    "_pred_of",
    "_pred_ids",
    "_fwd_offsets",
    "_fwd_preds",
    "_fwd_objs",
    "_bwd_offsets",
    "_bwd_preds",
    "_bwd_subjs",
    "_und_offsets",
    "_und_targets",
    "_vindex_offsets",
    "_vindex_literals",
    "_vindex_subjects",
    "_num_triples",
)


def snapshots_identical(canonical: GraphSnapshot, rebuilt: GraphSnapshot) -> bool:
    """Two canonical snapshots, slot by slot (pass ``patched.compacted()``)."""
    return all(
        getattr(canonical, slot) == getattr(rebuilt, slot) for slot in _SNAPSHOT_SLOTS
    )


def reads_identical(patched: GraphSnapshot, rebuilt: GraphSnapshot) -> bool:
    """*patched* answers every read as *rebuilt* does: the object surface
    exactly, the integer surface after ``node_at`` decoding."""

    def postings(reader, predicate):
        literals, subjects = reader.value_postings(reader.pred_id(predicate))
        return sorted(
            (repr(reader.node_at(lit)), reader.node_at(sid)) for lit, sid in zip(literals, subjects)
        )

    if (
        set(patched.entities()) != set(rebuilt.entities())
        or patched.value_nodes() != rebuilt.value_nodes()
        or patched.predicates() != rebuilt.predicates()
        or set(patched.triples()) != set(rebuilt.triples())
        or patched.stats().keys() != rebuilt.stats().keys()
        or any(
            patched.entities_of_type(etype) != rebuilt.entities_of_type(etype)
            or patched.decode_ids(patched.type_ids(etype)) != set(rebuilt.entities_of_type(etype))
            for etype in rebuilt.types() | patched.types()
        )
        or any(postings(patched, p) != postings(rebuilt, p) for p in rebuilt.predicates())
    ):
        return False
    for node in list(rebuilt.entity_ids()) + list(rebuilt.value_nodes()):
        mine, theirs = patched.id_of(node), rebuilt.id_of(node)
        if (
            mine is None
            or patched.node_at(mine) != node
            or patched.is_literal_id(mine) != rebuilt.is_literal_id(theirs)
            or patched.neighbors(node) != rebuilt.neighbors(node)
            or patched.decode_ids(patched.adjacency(mine))
            != rebuilt.decode_ids(rebuilt.adjacency(theirs))
            or patched.in_triples(node) != rebuilt.in_triples(node)
            or (isinstance(node, str) and patched.out_triples(node) != rebuilt.out_triples(node))
        ):
            return False
    return True


def bench_dataset(scale: float):
    return synthetic_dataset(
        num_keys=8,
        chain_length=2,
        radius=2,
        entities_per_type=8,
        scale=scale,
        seed=7,
    )


def refresh_deltas(graph, count: int) -> List:
    """*count* journalled deltas over a bounded predicate vocabulary.

    Value attachments dominate (the steady-state ingest shape); one retype
    and one removal per ten deltas keep the mutations that reshuffle the
    canonical order in the identity gate's coverage.
    """
    entities = sorted(graph.entity_ids())
    types = sorted(graph.types())
    deltas = []
    for index in range(count):
        target = entities[index % len(entities)]
        if index % 10 == 7:
            deltas.append(
                lambda g, t=target, i=index: g.retype_entity(
                    t, types[i % len(types)]
                )
            )
        elif index % 10 == 8:
            deltas.append(
                lambda g, t=target: g.remove_triple(
                    sorted(g.out_triples(t), key=repr)[0]
                )
                if g.out_triples(t)
                else None
            )
        else:
            deltas.append(
                lambda g, t=target, i=index: g.add_value(
                    t, f"ingest_tag_{i % 4}", f"v{i}"
                )
            )
    return deltas


def bench_refresh(scale: float, deltas: int, store_root: Path) -> Dict:
    """Patch-path vs rebuild-path per-delta artifact refresh at one scale."""
    dataset = bench_dataset(scale)
    graph = dataset.graph
    patch_store = SnapshotStore(store_root / f"patch_{scale}")
    rebuild_store = SnapshotStore(store_root / f"rebuild_{scale}")
    snapshot = GraphSnapshot.build(graph)
    patch_store.save(snapshot, graph=graph)

    patch_seconds = 0.0
    rebuild_seconds = 0.0
    identical = True
    for mutate in refresh_deltas(graph, deltas):
        base_version = snapshot.version
        mutate(graph)
        touched = graph.touched_since(base_version)

        started = time.perf_counter()
        patched = snapshot.patched(graph, touched)
        fingerprint = graph.content_fingerprint()
        patch_store.patch(
            patched, base=snapshot, fingerprint=fingerprint, prune_base=True
        )
        patch_seconds += time.perf_counter() - started

        started = time.perf_counter()
        rebuilt = GraphSnapshot.build(graph)
        full_fingerprint = graph_fingerprint(graph)
        rebuild_store.save(rebuilt, fingerprint=full_fingerprint)
        rebuild_seconds += time.perf_counter() - started

        identical = identical and reads_identical(patched, rebuilt)
        identical = identical and snapshots_identical(patched.compacted(), rebuilt)
        identical = identical and fingerprint == full_fingerprint
        snapshot = patched

    speedup = rebuild_seconds / patch_seconds if patch_seconds > 0 else 0.0
    return {
        "entities": graph.num_entities,
        "triples": graph.num_triples,
        "deltas": deltas,
        "patch_wall_seconds": round(patch_seconds, 5),
        "rebuild_wall_seconds": round(rebuild_seconds, 5),
        "patch_ms_per_delta": round(1000.0 * patch_seconds / deltas, 4),
        "rebuild_ms_per_delta": round(1000.0 * rebuild_seconds / deltas, 4),
        "refresh_speedup": round(speedup, 2),
        "store_segments_reused": patch_store.patched_segments_reused,
        "store_segments_rewritten": patch_store.patched_segments_rewritten,
        "bit_identical": identical,
    }


def ingest_ops(graph, count: int) -> List[Dict]:
    """A mutation stream in the ingest wire vocabulary."""
    entities = sorted(graph.entity_ids())
    types = sorted(graph.types())
    ops: List[Dict] = []
    for index in range(count):
        target = entities[index % len(entities)]
        if index % 7 == 5:
            eid = f"stream_{index}"
            ops.append({"op": "add_entity", "id": eid, "type": types[index % len(types)]})
            ops.append(
                {"op": "add_edge", "subject": eid, "predicate": "stream_ref", "object": target}
            )
        else:
            ops.append(
                {
                    "op": "add_value",
                    "subject": target,
                    "predicate": f"stream_tag_{index % 3}",
                    "value": f"s{index}",
                }
            )
    return ops


def bench_ingest(scale: float, ops_count: int, latency_budget: float) -> Dict:
    """Sustained streaming ingest against a blocked incremental session."""
    dataset = bench_dataset(scale)
    graph, keys = dataset.graph, dataset.keys
    twin = graph.copy()
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    session.run()

    ops = ingest_ops(graph, ops_count)
    pipeline = IngestPipeline(session, latency_budget=latency_budget)
    report = pipeline.run(ops)

    for op in ops:
        apply_mutation(twin, op)
    streamed = pipeline.last_result.eq.pairs()
    batch_full = chase(twin, keys).pairs()

    info = session.cache_info()
    return {
        "entities": graph.num_entities,
        "triples": graph.num_triples,
        "latency_budget_seconds": latency_budget,
        "ops": report.ops_applied,
        "batches": report.batches,
        "delta_modes": report.delta_modes,
        "mutations_per_second": round(report.mutations_per_second, 1),
        "staleness_p50_ms": round(1000.0 * report.staleness_p50, 2),
        "staleness_p95_ms": round(1000.0 * report.staleness_p95, 2),
        "staleness_max_ms": round(1000.0 * report.staleness_max, 2),
        "pairs_rechecked": report.pairs_rechecked,
        "snapshot_patches": info.snapshot_patches,
        "snapshot_builds": info.snapshot_builds,
        "snapshot_compactions": info.snapshot_compactions,
        "snapshot_patch_fallbacks": info.snapshot_patch_fallbacks,
        "store_write_failures": info.store_write_failures,
        "identified_pairs": pipeline.last_result.num_identified,
        "streamed_equals_batch": streamed == batch_full,
    }


def bench_recovery(
    scale: float, ops_count: int, latency_budget: float, wal_root: Path
) -> Dict:
    """WAL durability pricing and crash-replay throughput + identity gate."""
    from repro.core.fingerprint import fingerprint_of
    from repro.service.wal import WriteAheadLog, replay

    policies: Dict[str, Dict] = {}
    for policy in ("off", "batch", "always"):
        dataset = bench_dataset(scale)
        graph, keys = dataset.graph, dataset.keys
        session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
        session.run()
        wal = WriteAheadLog(
            wal_root / f"fsync_{policy}",
            fsync=policy,
            base_fingerprint=fingerprint_of(graph),
        )
        ops = ingest_ops(graph, ops_count)
        started = time.perf_counter()
        report = IngestPipeline(
            session, latency_budget=latency_budget, wal=wal
        ).run(ops)
        elapsed = time.perf_counter() - started
        metrics = wal.metrics()
        wal.close()
        policies[policy] = {
            "wall_seconds": round(elapsed, 5),
            "mutations_per_second": (
                round(report.ops_applied / elapsed, 1) if elapsed > 0 else 0.0
            ),
            "batches": report.batches,
            "fsync_calls": metrics["fsync_calls"],
            "bytes_written": metrics["bytes_written"],
        }
    overhead = (
        policies["always"]["wall_seconds"] / policies["off"]["wall_seconds"]
        if policies["off"]["wall_seconds"] > 0
        else 0.0
    )

    # --- the crash: journalled run, tail applied but never flushed --------- #
    dataset = bench_dataset(scale)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    session.run()
    crash_root = wal_root / "crash"
    wal = WriteAheadLog(
        crash_root, fsync="batch", base_fingerprint=fingerprint_of(graph)
    )
    ops = ingest_ops(graph, ops_count)
    tail = max(1, ops_count // 10)
    IngestPipeline(session, latency_budget=latency_budget, wal=wal).run(
        ops[: len(ops) - tail]
    )
    for op in ops[len(ops) - tail:]:
        wal.append(op)
        apply_mutation(graph, op)
    # no close(): the process "died" here, the journal keeps the torn window

    recovered = bench_dataset(scale)
    session2 = (
        MatchSession(recovered.graph)
        .with_keys(recovered.keys)
        .using("EMOptVC", blocking="auto")
    )
    session2.run()
    wal2 = WriteAheadLog(crash_root, fsync="batch")
    journalled = wal2.state().ops
    started = time.perf_counter()
    replay_report = replay(wal2, session2)
    replay_elapsed = time.perf_counter() - started
    result = session2.rerun()
    wal2.close()

    twin = bench_dataset(scale).graph
    for op in journalled:
        apply_mutation(twin, op)
    identical = (
        result.eq.pairs() == chase(twin, recovered.keys).pairs()
        and fingerprint_of(session2.graph) == graph_fingerprint(twin)
    )
    return {
        "fsync_policies": policies,
        "fsync_always_overhead_x": round(overhead, 2),
        "crash": {
            "journalled_ops": len(journalled),
            "pending_at_crash": replay_report.pending_replayed,
            "ops_replayed": replay_report.ops_replayed,
            "checkpoints_verified": replay_report.checkpoints_verified,
            "replay_wall_seconds": round(replay_elapsed, 5),
            "replay_ops_per_second": (
                round(replay_report.ops_replayed / replay_elapsed, 1)
                if replay_elapsed > 0
                else 0.0
            ),
            "replay_identical": identical,
        },
    }


def run_benchmark(
    scales: List[float], deltas: int, ops_count: int, latency_budget: float
) -> Dict:
    report: Dict = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "scales": {},
        "ingest": {},
        "recovery": {},
        "ok": True,
    }
    with tempfile.TemporaryDirectory(prefix="bench_ingest_") as tmp:
        for scale in scales:
            stats = bench_refresh(scale, deltas, Path(tmp))
            report["scales"][str(scale)] = stats
            report["ok"] = report["ok"] and stats["bit_identical"]
        largest = str(max(scales))
        report["largest_scale"] = largest
        report["refresh_speedup_at_largest"] = report["scales"][largest][
            "refresh_speedup"
        ]

        ingest = bench_ingest(max(scales), ops_count, latency_budget)
        report["ingest"] = ingest
        report["ok"] = report["ok"] and ingest["streamed_equals_batch"]
        # a refused patch or a failed store write is a correct, slow rebuild:
        # the stream would pass every identity gate with the gain gone
        report["ok"] = report["ok"] and not (
            ingest["snapshot_patch_fallbacks"] or ingest["store_write_failures"]
        )

        recovery = bench_recovery(
            max(scales), ops_count, latency_budget, Path(tmp) / "wal"
        )
        report["recovery"] = recovery
        report["ok"] = report["ok"] and recovery["crash"]["replay_identical"]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", type=float, nargs="+", default=[1.0, 2.0, 4.0, 8.0, 16.0]
    )
    parser.add_argument("--deltas", type=int, default=8)
    parser.add_argument("--ops", type=int, default=60)
    parser.add_argument("--latency-budget", type=float, default=0.05)
    parser.add_argument("--out", default="BENCH_ingest.json")
    parser.add_argument(
        "--require-refresh-speedup",
        type=float,
        default=10.0,
        metavar="X",
        help="fail unless the largest-scale refresh speedup is >= X (0 disables)",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.scales, args.deltas, args.ops, args.latency_budget)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")

    if not report["ok"]:
        print(
            "FAIL: identity gate violated (patched != rebuilt, streamed != "
            "batch, WAL replay != uninterrupted run, or a patch fell back)",
            file=sys.stderr,
        )
        return 1
    if args.require_refresh_speedup:
        measured = report["refresh_speedup_at_largest"]
        if measured < args.require_refresh_speedup:
            print(
                f"FAIL: refresh speedup {measured}x at the largest scale is below "
                f"{args.require_refresh_speedup}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
