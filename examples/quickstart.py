#!/usr/bin/env python3
"""Quickstart: the paper's music example end to end, through ``MatchSession``.

Builds the knowledge-graph fragment G1 of Fig. 2 (albums and artists with a
duplicate album and a duplicate artist), defines the keys Q1–Q3 of Fig. 1
both programmatically and through the textual DSL, runs entity matching with
every registered algorithm through one shared session (so the candidate set,
neighbourhood index and product graph are built once, not once per
algorithm), demonstrates the on-disk snapshot store (warm restarts mmap-load
the compiled snapshot instead of rebuilding it), and explains *why* each
pair was identified using the proof graph (provenance) API.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile

from repro import (
    ALGORITHMS,
    MatchConfig,
    MatchSession,
    chase,
    explain,
    parse_keys,
    proof_from_chase,
    verify_proof,
)
from repro.datasets.music import music_graph, music_keys


def main() -> None:
    graph = music_graph()
    keys = music_keys()
    print("Graph G1:", graph.stats())
    print("Keys   Σ1:", keys.stats())
    print()

    # The same keys can be written in the textual DSL — handy for config files.
    dsl_keys = parse_keys(
        """
        key Q1 for album:            # an album is identified by name + artist
          x -[name_of]-> name*
          x -[recorded_by]-> artist1:artist

        key Q2 for album:            # ... or by name + release year
          x -[name_of]-> name*
          x -[release_year]-> year*

        key Q3 for artist:           # an artist is identified by name + an album
          x -[name_of]-> name*
          album1:album -[recorded_by]-> x
        """
    )
    assert dsl_keys.cardinality == keys.cardinality

    # One session, every backend: the expensive artifacts are shared.
    # blocking="off" enumerates the paper's full same-type pair list L, so the
    # simulated seconds and pair counts printed below are the paper's; the
    # default ("auto") enumerates only signature-colliding pairs — same
    # result, fewer candidates.
    session = MatchSession(graph, keys, MatchConfig(blocking="off"))
    print("Entity matching with every registered algorithm (one session):")
    for algorithm in ALGORITHMS:
        result = session.run(algorithm, processors=4)
        pairs = ", ".join(f"{a}≡{b}" for a, b in sorted(result.pairs()))
        print(
            f"  {algorithm:9s} identified [{pairs}] "
            f"(simulated {result.simulated_seconds:.2f}s on 4 workers)"
        )
    info = session.cache_info()
    print(
        f"  (neighbourhood index built {info.neighborhood_index_builds}×, "
        f"product graph built {info.product_graph_builds}× "
        f"across {len(session.history)} runs)"
    )
    print()

    # Backend knobs flow through the same entry point — e.g. EMOptVC's
    # fan-out budget, unreachable before the registry redesign:
    tight = session.using("EMOptVC", processors=4, fanout=1).run()
    print(f"EMOptVC with fanout=1: {tight.stats.messages_sent} messages sent")
    print()

    # Real parallelism: executor="process" runs the task batches on a process
    # pool of `workers` real workers (the CLI equivalent is
    # `repro-keys match ... --executor process --workers 2`).  `processors`
    # stays the paper's *simulated* cluster size; results are bit-identical
    # to the serial run, only the measured wall clock changes.
    pooled = session.run("EMOptMR", processors=4, executor="process", workers=2)
    print(
        f"EMOptMR on a 2-worker process pool: identified {pooled.num_identified} "
        f"pairs in {pooled.wall_seconds:.3f}s wall "
        f"({pooled.simulated_seconds:.2f}s simulated on 4 workers)"
    )
    print()

    # Persistence: with a snapshot store the compiled GraphSnapshot lives in
    # a versioned on-disk file keyed by the graph's content fingerprint.  A
    # restarted process mmap-loads it (zero rebuild), and process-pool
    # workers attach by path — one physical copy per machine.  The CLI
    # equivalents are `repro-keys match ... --snapshot-store DIR` and
    # `repro-keys snapshot save|info|verify`.
    with tempfile.TemporaryDirectory() as store_dir:
        cold = MatchSession(graph, snapshot_store=store_dir).with_keys(keys)
        cold.run("EMOptVC")      # builds the snapshot, writes it to the store
        warm = MatchSession(graph, snapshot_store=store_dir).with_keys(keys)
        warm.run("EMOptVC")      # "restart": loads the stored file instead
        print(
            f"snapshot store: cold start built {cold.cache_info().snapshot_builds} "
            f"snapshot(s) (store misses: {cold.cache_info().store_misses}); "
            f"warm start built {warm.cache_info().snapshot_builds} "
            f"(store hits: {warm.cache_info().store_hits})"
        )
    print()

    # Incremental re-matching: after a mutation, `rerun()` seeds from the
    # previous result and re-chases only the candidate pairs the mutation
    # journal says could have changed — bit-identical to a full re-run
    # (the CLI equivalent is `repro-keys match ... --incremental --profile`).
    session.using("EMOptVC", processors=4)
    session.run()
    graph.add_value("alb3", "release_year", "1996")   # a small journal delta
    updated = session.rerun()
    delta = session.last_delta()
    print(
        f"incremental rerun after one mutation: {delta.mode} "
        f"(re-checked {delta.pairs_rechecked} of "
        f"{delta.pairs_rechecked + delta.pairs_skipped} candidate pairs, "
        f"seeded {delta.seed_merges} surviving merge(s)); "
        f"identified {updated.num_identified} pairs"
    )
    graph.remove_value("alb3", "release_year", "1996")  # undo (journalled too)
    session.rerun()
    print()

    # Provenance: why were these entities identified?
    outcome = chase(graph, keys)
    proof = proof_from_chase(outcome)
    assert verify_proof(graph, keys, proof)
    print("Why is art1 the same artist as art2?")
    for step in explain(graph, keys, outcome, "art1", "art2"):
        needs = f" (needs {', '.join(map(str, step.prerequisites))})" if step.prerequisites else ""
        print(f"  {step.pair} identified by key {step.key_name}{needs}")


if __name__ == "__main__":
    main()
