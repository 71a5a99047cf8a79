"""Command-line interface: ``repro-keys`` / ``python -m repro.cli``.

Sub-commands:

* ``match``      — load a graph and a key set (DSL files) and run entity matching;
* ``check``      — check ``G |= Q(x)`` for every key and report violations;
* ``generate``   — write a synthetic dataset (graph + keys) to DSL files;
* ``bench``      — run one of the paper's sweeps and print the series;
* ``algorithms`` — list the registered matching backends and their options
  (``--json`` for the machine-readable catalog service clients consume);
* ``snapshot``   — operate on stored ``GraphSnapshot`` files
  (``save`` / ``info`` / ``verify``);
* ``serve``      — run the long-lived matching service (JSON over HTTP):
  named graphs, concurrent match requests with admission control, progress
  streaming and ``/metrics`` observability (see ``repro.service``).

``match --snapshot-store DIR`` consults an on-disk snapshot store before
compiling the graph (a warm file is ``mmap``-loaded, skipping the build) and
writes freshly built snapshots back; ``--profile`` reports whether the
snapshot was loaded or built.

All matching dispatch goes through the algorithm registry: ``match`` accepts
``--fanout`` and generic ``--set key=value`` backend options, which are
validated against the chosen backend's :class:`~repro.api.AlgorithmSpec`.
``match`` and ``bench`` also accept ``--executor {serial,thread,process}``
and ``--workers N`` to run the task batches on a real executor pool
(measured wall-clock seconds are reported next to the simulated cluster
seconds; results are identical to the classic path).  Dataset names are
resolved through the dataset registry (:mod:`repro.datasets.registry`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from .api import MatchSession, algorithm_specs
from .api.registry import ALGORITHMS
from .benchlib import figure_table, processors_sweep, run_experiment, speedup_summary
from .core.matching import violations
from .core.parser import load_graph, load_keys, save_graph, save_keys
from .datasets.registry import DATASETS, dataset_factory, make_dataset
from .exceptions import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-keys",
        description="Keys for graphs: entity matching with recursive graph-pattern keys",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    match_parser = subparsers.add_parser("match", help="run entity matching on DSL files")
    match_parser.add_argument("--graph", required=True, help="graph DSL file")
    match_parser.add_argument("--keys", required=True, help="key DSL file")
    match_parser.add_argument(
        "--algorithm", default="EMOptVC", choices=list(ALGORITHMS), help="algorithm to use"
    )
    match_parser.add_argument("--processors", type=int, default=4, help="simulated workers")
    match_parser.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default=None,
        help="real execution runtime for the task batches (default: classic "
        "in-process execution; 'process' delivers wall-clock parallelism)",
    )
    match_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="real worker count of the executor pool (default: --processors "
        "capped at the machine's CPU count; requires --executor)",
    )
    match_parser.add_argument(
        "--fanout",
        type=int,
        default=None,
        help="bounded-message fan-out budget (EMOptVC only)",
    )
    match_parser.add_argument(
        "--set",
        dest="options",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="backend option passthrough, e.g. --set prioritize=false (repeatable)",
    )
    match_parser.add_argument(
        "--blocking",
        choices=["off", "auto", "force"],
        default="auto",
        help="candidate generation: 'auto' (the default) enumerates through "
        "signature blocks for every certified key shape and falls back to the "
        "quadratic enumeration per uncertifiable type, 'force' errors out "
        "instead of falling back, 'off' enumerates the paper's full "
        "same-type pair list L (results are identical in every mode; "
        "simulated seconds and candidate counts are the paper's only "
        "under 'off')",
    )
    match_parser.add_argument(
        "--incremental",
        action="store_true",
        help="request an incremental run: seed from the session's previous "
        "result and re-chase only journal-affected candidate pairs (a "
        "one-shot CLI invocation has no previous result, so this falls back "
        "to a full run; --profile reports the delta provenance)",
    )
    match_parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase timings (snapshot build, candidates, product "
        "graph), snapshot load-vs-build provenance, incremental delta "
        "provenance and per-round/superstep counters after the run",
    )
    match_parser.add_argument(
        "--snapshot-store",
        default=None,
        metavar="DIR",
        help="directory cache of compiled graph snapshots: mmap-load the "
        "snapshot when a file matching the graph is stored, write it back "
        "after a build",
    )

    check_parser = subparsers.add_parser("check", help="check key satisfaction (G |= Q(x))")
    check_parser.add_argument("--graph", required=True, help="graph DSL file")
    check_parser.add_argument("--keys", required=True, help="key DSL file")

    generate_parser = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate_parser.add_argument(
        "--dataset",
        default="synthetic",
        choices=list(DATASETS),
        help="which registered dataset to build",
    )
    generate_parser.add_argument("--keys-count", type=int, default=20, dest="num_keys")
    generate_parser.add_argument("--chain-length", type=int, default=2)
    generate_parser.add_argument("--radius", type=int, default=2)
    generate_parser.add_argument("--scale", type=float, default=1.0)
    generate_parser.add_argument("--seed", type=int, default=7)
    generate_parser.add_argument("--out-graph", required=True, help="output graph DSL file")
    generate_parser.add_argument("--out-keys", required=True, help="output key DSL file")

    bench_parser = subparsers.add_parser("bench", help="run a processors sweep and print it")
    bench_parser.add_argument(
        "--dataset",
        default="synthetic",
        choices=list(DATASETS),
    )
    bench_parser.add_argument("--processors", type=int, nargs="+", default=[4, 8, 12, 16, 20])
    bench_parser.add_argument("--scale", type=float, default=1.0)
    bench_parser.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default=None,
        help="run the sweep's backends on a real executor and report measured "
        "wall-clock seconds next to the simulated cluster seconds",
    )
    bench_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="real worker count of the executor pool (requires --executor)",
    )

    algorithms_parser = subparsers.add_parser(
        "algorithms", help="list the registered matching algorithms and their options"
    )
    algorithms_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output: one JSON object per backend with "
        "name, family, description, capabilities and typed options (what "
        "service clients use to discover backends)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived matching service (JSON over HTTP): register "
        "named graphs, submit concurrent match requests, poll status and "
        "stream progress — all graphs multiplex one shared snapshot store",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8765, help="bind port")
    serve_parser.add_argument(
        "--snapshot-store",
        default=None,
        metavar="DIR",
        help="shared on-disk snapshot store every registered graph "
        "multiplexes (strongly recommended: restarts warm-start off disk)",
    )
    serve_parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="worker threads executing match requests concurrently",
    )
    serve_parser.add_argument(
        "--max-queued",
        type=int,
        default=16,
        help="requests allowed to wait for a worker before new submissions "
        "are rejected with HTTP 429",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request queue-wait deadline (overridable per "
        "request; default: no deadline)",
    )
    serve_parser.add_argument(
        "--graph",
        dest="graphs",
        action="append",
        default=[],
        metavar="NAME=GRAPH_FILE:KEYS_FILE",
        help="pre-register a named graph from DSL files at startup "
        "(repeatable); more graphs can be registered over HTTP",
    )
    serve_parser.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="write-ahead journal root: every graph's ingest ops are "
        "journalled before they apply, and a restart replays any window "
        "a crash left un-flushed (fingerprint-verified)",
    )
    serve_parser.add_argument(
        "--fsync",
        choices=["always", "batch", "off"],
        default="batch",
        help="WAL durability: fsync every op / every flushed batch / never "
        "(default: batch)",
    )
    serve_parser.add_argument(
        "--max-pending-ops",
        type=int,
        default=None,
        metavar="N",
        help="bound the per-graph un-flushed ingest window; windows that "
        "would exceed it get HTTP 429 with a measured Retry-After",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="graceful-drain budget on SIGTERM/Ctrl-C: how long to wait "
        "for queued requests before stopping (default: 30s per worker)",
    )
    serve_parser.add_argument(
        "--profile",
        action="store_true",
        help="print the final /metrics scrape as JSON after shutdown "
        "(admission, ingest staleness, WAL and drain counters)",
    )

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="consume a continuous mutation stream (JSONL) against a graph, "
        "folding it into incremental re-matches in latency-budgeted batches",
    )
    ingest_parser.add_argument("--graph", required=True, help="graph DSL file")
    ingest_parser.add_argument("--keys", required=True, help="key DSL file")
    ingest_parser.add_argument(
        "--ops",
        required=True,
        metavar="FILE",
        help="mutation stream: one JSON op per line ('-' reads stdin, so a "
        "producer can pipe mutations in continuously)",
    )
    ingest_parser.add_argument(
        "--algorithm", default="EMOptVC", choices=list(ALGORITHMS), help="algorithm to use"
    )
    ingest_parser.add_argument(
        "--blocking",
        choices=["off", "auto", "force"],
        default="auto",
        help="candidate generation for the stream's re-matches (default "
        "'auto'; see 'match')",
    )
    ingest_parser.add_argument(
        "--latency-budget",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="flush a batch once its oldest unflushed mutation is this old; "
        "the published result is never more than one batch stale "
        "(default: 0.25s)",
    )
    ingest_parser.add_argument(
        "--batch-ops",
        type=int,
        default=None,
        metavar="N",
        help="also flush whenever N mutations have accumulated",
    )
    ingest_parser.add_argument(
        "--snapshot-store",
        default=None,
        metavar="DIR",
        help="snapshot store directory; each flushed batch patches the "
        "stored snapshot segment-by-segment instead of rewriting it",
    )
    ingest_parser.add_argument(
        "--max-pending-ops",
        type=int,
        default=None,
        metavar="N",
        help="bound the un-flushed pending window: flush early instead of "
        "letting apply-then-flush debt grow without limit",
    )
    ingest_parser.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="write-ahead journal directory for this stream: ops are "
        "journalled before they apply and each flush is checkpointed "
        "with the post-flush graph fingerprint",
    )
    ingest_parser.add_argument(
        "--fsync",
        choices=["always", "batch", "off"],
        default="batch",
        help="WAL durability: fsync every op / every flushed batch / never "
        "(default: batch)",
    )
    ingest_parser.add_argument(
        "--resume",
        action="store_true",
        help="recover a journal left by a crashed run: replay its "
        "un-checkpointed ops through the pipeline (fingerprint-verified) "
        "before consuming the stream; without this flag a non-empty "
        "journal is an error",
    )
    ingest_parser.add_argument(
        "--json",
        action="store_true",
        help="print the ingest report as JSON instead of the human summary",
    )
    ingest_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-batch progress lines",
    )

    snapshot_parser = subparsers.add_parser(
        "snapshot", help="operate on stored GraphSnapshot files"
    )
    snapshot_sub = snapshot_parser.add_subparsers(dest="snapshot_command", required=True)
    save_parser = snapshot_sub.add_parser(
        "save", help="compile a graph DSL file and write the snapshot to disk"
    )
    save_parser.add_argument("--graph", required=True, help="graph DSL file")
    save_target = save_parser.add_mutually_exclusive_group(required=True)
    save_target.add_argument(
        "--store", metavar="DIR", help="write into a snapshot store directory"
    )
    save_target.add_argument("--out", metavar="FILE", help="write to an explicit file")
    info_parser = snapshot_sub.add_parser(
        "info", help="print the header of a stored snapshot file"
    )
    info_parser.add_argument("file", help="stored snapshot file")
    verify_parser = snapshot_sub.add_parser(
        "verify", help="fully validate a stored snapshot file (structure + checksum)"
    )
    verify_parser.add_argument("file", help="stored snapshot file")
    verify_parser.add_argument(
        "--graph",
        default=None,
        help="also check the fingerprint and Graph.version against this DSL file",
    )
    return parser


def _parse_option_value(raw: str) -> object:
    """Coerce a ``--set`` value: int, float or bool when possible, else str."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(raw)
        except ValueError:
            continue
    return raw


def _parse_options(pairs: Sequence[str]) -> Dict[str, object]:
    options: Dict[str, object] = {}
    for item in pairs:
        key, separator, raw = item.partition("=")
        if not separator or not key:
            raise ReproError(f"--set expects KEY=VALUE, got {item!r}")
        if key in ("algorithm", "processors"):
            raise ReproError(f"use --{key} instead of --set {key}=...")
        options[key] = _parse_option_value(raw)
    return options


def _command_match(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    keys = load_keys(args.keys)
    options = _parse_options(args.options)
    if args.fanout is not None:
        options["fanout"] = args.fanout
    session = MatchSession(graph, snapshot_store=args.snapshot_store).with_keys(keys)
    result = session.run(
        args.algorithm,
        processors=args.processors,
        executor=args.executor,
        workers=args.workers,
        incremental=True if args.incremental else None,
        blocking=args.blocking,
        **options,
    )
    print(f"algorithm      : {result.algorithm}")
    print(f"processors     : {result.processors}")
    if args.executor is not None:
        workers = args.workers if args.workers is not None else "auto"
        print(f"executor       : {args.executor} ({workers} workers)")
    print(f"identified     : {result.num_identified} pairs")
    print(f"simulated time : {result.simulated_seconds:.2f} s")
    print(f"wall time      : {result.wall_seconds:.3f} s")
    if args.profile:
        _print_profile(session, result)
    for e1, e2 in sorted(result.pairs()):
        print(f"  {e1} == {e2}")
    return 0


def _print_profile(session: MatchSession, result) -> None:
    """Per-phase timing report for ``match --profile``.

    Artifact-build phases come from the session cache's timers; the solve
    phase is the backend's measured wall clock minus the artifact builds.
    Round/superstep counters come straight from the ``EMResult`` statistics.
    """
    timings = session.phase_timings()
    print("profile:")
    info = session.cache_info()
    if info.store_hits:
        provenance = f"loaded from store ({info.store_hits} hit(s))"
    elif info.store_misses:
        provenance = f"built (store miss: {info.store_misses}), saved back"
    elif info.snapshot_builds:
        provenance = "built in process (no snapshot store)"
    else:
        provenance = "the snapshot the graph already held"
    print(f"  {'snapshot source':<24} : {provenance}")
    if info.snapshot_patches:
        print(
            f"  {'snapshot refresh':<24} : {info.snapshot_patches} patch(es), "
            f"{info.snapshot_builds} rebuild(s) — a patched snapshot "
            f"reads exactly as a recompile does"
        )
    delta = session.last_delta()
    if delta is not None:
        if delta.mode == "full":
            print(f"  {'delta provenance':<24} : full run ({delta.reason})")
        else:
            print(
                f"  {'delta provenance':<24} : {delta.mode} "
                f"(touched {delta.touched_nodes} node(s), rechecked "
                f"{delta.pairs_rechecked}, skipped {delta.pairs_skipped}, "
                f"seeded {delta.seed_merges} merge(s), dropped "
                f"{delta.dropped_classes} class(es))"
            )
    for phase in (
        "snapshot_store_load",
        "snapshot_build",
        "snapshot_patch",
        "snapshot_store_save",
        "snapshot_store_patch",
        "neighborhood_index_build",
        "blocking_index_build",
        "blocking_index_rebase",
        "blocking_collision",
        "blocking_pairing_filter",
        "candidates_build",
        "candidates_rebase",
        "dependency_map_build",
        "dependency_map_rebase",
        "product_graph_build",
        "product_graph_rebase",
    ):
        if phase in timings:
            print(f"  {phase:<24} : {timings[phase] * 1000.0:9.2f} ms")
    solve = max(0.0, result.wall_seconds - sum(timings.values()))
    print(f"  {'solve':<24} : {solve * 1000.0:9.2f} ms")
    if info.blocking_index_builds or info.blocking_index_rebases:
        print(
            f"  {'blocking':<24} : {info.blocking_blocks_touched} block(s) "
            f"touched, {info.blocking_pairs_pruned} pair(s) pruned vs "
            f"quadratic"
        )
    stats = result.stats
    counters = {
        "rounds": stats.rounds,
        "checks": stats.checks,
        "messages_processed": stats.messages_processed,
        "shuffled_records": stats.shuffled_records,
        "work_units": stats.work_units,
    }
    for name, value in counters.items():
        if value:
            print(f"  {name:<24} : {value:9d}")


def _command_check(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    keys = load_keys(args.keys)
    any_violation = False
    for key in keys:
        found = violations(graph, key)
        status = "satisfied" if not found else f"{len(found)} violating pair(s)"
        print(f"{key.name:30s} {status}")
        for e1, e2 in found:
            any_violation = True
            print(f"  duplicate candidates: {e1} / {e2}")
    return 1 if any_violation else 0


def _command_generate(args: argparse.Namespace) -> int:
    graph, keys = make_dataset(
        args.dataset,
        num_keys=args.num_keys,
        chain_length=args.chain_length,
        radius=args.radius,
        scale=args.scale,
        seed=args.seed,
    )
    save_graph(graph, args.out_graph)
    save_keys(keys, args.out_keys)
    print(f"wrote {graph.num_triples} triples to {args.out_graph}")
    print(f"wrote {keys.cardinality} keys to {args.out_keys}")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    spec = processors_sweep(
        experiment_id=f"cli-{args.dataset}",
        dataset_name=args.dataset,
        dataset_factory=dataset_factory(args.dataset),
        processors=args.processors,
        scale=args.scale,
        executor=args.executor,
        workers=args.workers,
    )
    result = run_experiment(spec)
    print(figure_table(result, include_wall=args.executor is not None))
    print(speedup_summary(result))
    return 0


def _command_snapshot(args: argparse.Namespace) -> int:
    from .storage import (
        GraphSnapshot,
        SnapshotStore,
        graph_fingerprint,
        snapshot_info,
        verify_snapshot,
        write_snapshot,
    )

    if args.snapshot_command == "save":
        graph = load_graph(args.graph)
        snapshot = GraphSnapshot.build(graph)
        fingerprint = graph_fingerprint(graph)
        if args.store is not None:
            path = SnapshotStore(args.store).save(snapshot, fingerprint=fingerprint)
        else:
            path = write_snapshot(snapshot, args.out, fingerprint=fingerprint)
        print(f"wrote        : {path}")
        print(f"fingerprint  : {fingerprint}")
        print(f"graph version: {snapshot.version}")
        print(f"file size    : {os.path.getsize(path)} bytes")
        print(
            f"contents     : {snapshot.num_entities} entities, "
            f"{snapshot.num_nodes - snapshot.num_entities} values, "
            f"{snapshot.num_triples} triples"
        )
        return 0

    if args.snapshot_command == "info":
        info = snapshot_info(args.file)
        print(f"file          : {info['path']} ({info['file_size']} bytes)")
        print(f"kind          : {info['kind']}")
        if info["kind"] == "delta":
            overlay = info["overlay"]
            sizes = overlay["sizes"]
            print(f"ancestor      : {info['ancestor']}")
            print(
                f"overlay       : {sizes['row_ids']} rows, {sizes['dead']} tombstones, "
                f"{sizes['nodes']} new nodes, {len(overlay['preds'])} new predicates, "
                f"{len(overlay['etypes'])} typed or retyped entities"
            )
        print(f"format version: {info['format_version']}")
        print(f"graph version : {info['graph_version']}")
        print(f"fingerprint   : {info['fingerprint']}")
        print(f"byte order    : {info['byteorder']}-endian")
        print(
            f"contents      : {info['num_entities']} entities, "
            f"{info['num_nodes'] - info['num_entities']} values, "
            f"{info['num_triples']} triples, "
            f"{info['num_predicates']} predicates, {len(info['types'])} types"
        )
        for name, (offset, length) in sorted(info["segments"].items()):
            print(f"  segment {name:<16} : {length:>10} bytes @ {offset}")
        return 0

    # verify
    graph = load_graph(args.graph) if args.graph is not None else None
    from .exceptions import StoreError

    try:
        info = verify_snapshot(args.file, graph)
    except StoreError as error:
        print(f"FAIL: {error}")
        return 1
    checked = "structure, checksum, decode"
    if info["kind"] == "delta":
        checked += f", ancestor {info['ancestor'][:12]}… checksum"
    if graph is not None:
        checked += ", fingerprint, graph version"
    print(f"OK: {args.file} ({checked})")
    print(f"fingerprint   : {info['fingerprint']}")
    print(f"graph version : {info['graph_version']}")
    return 0


def _command_algorithms(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        from .service.wire import algorithm_catalog

        print(json.dumps({"algorithms": algorithm_catalog()}, indent=2, sort_keys=True))
        return 0
    print(f"{'name':<10} {'family':<15} {'options':<40} description")
    for spec in algorithm_specs():
        options = ", ".join(
            f"{option.name}={option.default!r}" for option in spec.options
        ) or "-"
        print(f"{spec.name:<10} {spec.family:<15} {options:<40} {spec.description}")
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    import contextlib
    import json as json_module

    from .service.ingest import IngestPipeline, iter_jsonl

    graph = load_graph(args.graph)
    keys = load_keys(args.keys)
    session = MatchSession(graph, snapshot_store=args.snapshot_store).with_keys(keys)

    wal = None
    recovery = None
    if args.wal is not None:
        from .core.fingerprint import fingerprint_of
        from .service.wal import WriteAheadLog, replay

        wal = WriteAheadLog(
            args.wal, fsync=args.fsync, base_fingerprint=fingerprint_of(graph)
        )
        if wal.has_records():
            if not args.resume:
                raise ReproError(
                    f"WAL at {args.wal} holds records from a previous run; "
                    f"pass --resume to replay them (or point --wal at a "
                    f"fresh directory)"
                )
            recovery = replay(wal, session)
            if not args.json and not args.quiet:
                print(
                    f"recovered      : {recovery.ops_replayed} op(s) replayed, "
                    f"{recovery.batches} solve(s), "
                    f"{recovery.checkpoints_verified} checkpoint(s) verified, "
                    f"{recovery.pending_replayed} pending op(s) salvaged"
                )

    baseline = session.run(args.algorithm, blocking=args.blocking)
    if not args.json:
        print(
            f"baseline       : {baseline.num_identified} pairs "
            f"({args.algorithm}, blocking={args.blocking})"
        )

    def on_batch(result, report):
        if args.json or args.quiet:
            return
        delta = session.last_delta()
        mode = delta.mode if delta is not None else "full"
        rechecked = delta.pairs_rechecked if delta is not None else 0
        print(
            f"batch {report.batches:>4}   : {result.num_identified} pairs, "
            f"mode={mode}, rechecked={rechecked}"
        )

    pipeline = IngestPipeline(
        session,
        latency_budget=args.latency_budget,
        max_batch_ops=args.batch_ops,
        max_pending_ops=args.max_pending_ops,
        wal=wal,
        on_batch=on_batch,
    )
    try:
        with contextlib.ExitStack() as stack:
            if args.ops == "-":
                stream = sys.stdin
            else:
                stream = stack.enter_context(open(args.ops, "r", encoding="utf-8"))
            report = pipeline.run(iter_jsonl(stream))
    finally:
        if wal is not None:
            wal.close()

    if args.json:
        payload = report.as_dict()
        result = pipeline.last_result or baseline
        payload["identified"] = result.num_identified
        if recovery is not None:
            payload["recovery"] = recovery.as_dict()
        if wal is not None:
            payload["wal"] = wal.metrics()
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    result = pipeline.last_result or baseline
    print(f"ops applied    : {report.ops_applied}")
    print(f"batches        : {report.batches} ({report.delta_modes})")
    print(f"identified     : {result.num_identified} pairs")
    print(f"throughput     : {report.mutations_per_second:.1f} mutations/s")
    print(
        f"staleness      : p50 {report.staleness_p50 * 1000.0:.1f} ms, "
        f"p95 {report.staleness_p95 * 1000.0:.1f} ms, "
        f"max {report.staleness_max * 1000.0:.1f} ms"
    )
    print(
        f"time split     : apply {report.apply_seconds:.3f} s, "
        f"rerun {report.rerun_seconds:.3f} s"
    )
    info = session.cache_info()
    print(
        f"snapshots      : {info.snapshot_patches} patch(es), "
        f"{info.snapshot_builds} build(s)"
    )
    if wal is not None:
        metrics = wal.metrics()
        print(
            f"wal            : {metrics['appends']} append(s), "
            f"{metrics['checkpoints']} checkpoint(s), "
            f"{metrics['bytes_written']} bytes, fsync={metrics['fsync_policy']}"
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import json as json_module

    from .service import MatchingService, make_http_server
    from .service.server import install_drain_handlers

    service = MatchingService(
        store=args.snapshot_store,
        max_inflight=args.max_inflight,
        max_queued=args.max_queued,
        default_timeout=args.timeout,
        wal_root=args.wal,
        wal_fsync=args.fsync,
        max_pending_ops=args.max_pending_ops,
        drain_timeout=args.drain_timeout,
    )
    for item in args.graphs:
        name, separator, files = item.partition("=")
        graph_file, colon, keys_file = files.partition(":")
        if not separator or not colon or not name or not graph_file or not keys_file:
            raise ReproError(
                f"--graph expects NAME=GRAPH_FILE:KEYS_FILE, got {item!r}"
            )
        entry = service.register_graph(
            name,
            load_graph(graph_file),
            load_keys(keys_file),
            source=f"cli:{graph_file}",
            warm=True,
        )
        print(
            f"registered {name!r}: {entry.graph.num_entities} entities, "
            f"{entry.keys.cardinality} keys"
        )
        if entry.last_recovery is not None:
            print(
                f"  recovered from WAL: "
                f"{entry.last_recovery['ops_replayed']} op(s) replayed, "
                f"{entry.last_recovery['checkpoints_verified']} "
                f"checkpoint(s) verified"
            )
    server = make_http_server(service, args.host, args.port)
    install_drain_handlers(service, server, args.drain_timeout)
    host, port = server.server_address[:2]
    store = args.snapshot_store or "(in-memory only)"
    wal = args.wal or "(not journalled)"
    print(f"repro serve listening on http://{host}:{port}")
    print(f"  snapshot store : {store}")
    print(f"  write-ahead log: {wal} (fsync={args.fsync})")
    print(f"  admission      : {args.max_inflight} in flight, {args.max_queued} queued")
    print(
        "  endpoints      : /healthz /algorithms /graphs "
        "/graphs/<name>/ingest /match /requests /metrics"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.drain(args.drain_timeout)
        final = service.metrics()
        service.close()
    if args.profile:
        print(json_module.dumps(final, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the CLI; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "match": _command_match,
        "check": _command_check,
        "generate": _command_generate,
        "bench": _command_bench,
        "algorithms": _command_algorithms,
        "snapshot": _command_snapshot,
        "serve": _command_serve,
        "ingest": _command_ingest,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
