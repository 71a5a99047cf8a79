"""Tests of the streaming ingest pipeline (module, CLI and HTTP endpoint).

The acceptance contract of ``repro ingest``: a continuous JSONL mutation
stream is folded into latency-budgeted incremental re-matches whose final
result is **bit-identical** to a from-scratch batch run on the fully
mutated graph, the report's staleness percentiles cover every mutation
(results are never more than one batch stale), and malformed records fail
loudly instead of skewing results.
"""

from __future__ import annotations

import io
import itertools
import json

import pytest

from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.service.ingest import (
    IngestError,
    IngestFlushError,
    IngestPipeline,
    _percentile,
    apply_mutation,
    ingest_stream,
    iter_jsonl,
)

from tests.graphs import unpublished


def small_dataset(seed=3):
    return synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=seed
    )


def mutation_ops(graph, count=6):
    """A deterministic little op stream exercising several op kinds."""
    entities = sorted(graph.entity_ids())[:count]
    ops = [
        {"op": "add_value", "subject": e, "predicate": "ingest_probe", "value": f"v{i}"}
        for i, e in enumerate(entities)
    ]
    ops.append({"op": "add_entity", "id": "ing_new", "type": graph.entity_type(entities[0])})
    ops.append({"op": "add_edge", "subject": entities[0], "predicate": "ing_lnk", "object": "ing_new"})
    if len(entities) >= 3:
        ops.append({"op": "set_value", "subject": entities[1], "predicate": "ingest_probe", "value": "V1"})
        ops.append({"op": "remove_value", "subject": entities[2], "predicate": "ingest_probe", "value": "v2"})
    return ops


def renaming_ops(graph, keys):
    """Two key-relevant ops on one entity of an identified pair: a rename
    that drops its class, then the rename back.  (An op on a predicate no
    key names is answered ``"reused"``, with no re-chase.)"""
    entity = sorted(chase(graph, keys).pairs())[0][0]
    (name,) = graph.objects(entity, "name_of")
    rename = {"op": "set_value", "subject": entity, "predicate": "name_of"}
    return [dict(rename, value="renamed"), dict(rename, value=name.value)]


class TestApplyMutation:
    def test_dispatches_every_op_kind(self):
        dataset = small_dataset()
        graph = dataset.graph
        entity = sorted(graph.entity_ids())[0]
        etype = graph.entity_type(entity)
        apply_mutation(graph, {"op": "add_entity", "id": "m1", "type": etype})
        apply_mutation(graph, {"op": "add_edge", "subject": entity, "predicate": "p", "object": "m1"})
        apply_mutation(graph, {"op": "add_value", "subject": "m1", "predicate": "v", "value": "a"})
        apply_mutation(graph, {"op": "set_value", "subject": "m1", "predicate": "v", "value": "b"})
        assert {literal.value for literal in graph.objects("m1", "v")} == {"b"}
        apply_mutation(graph, {"op": "remove_value", "subject": "m1", "predicate": "v", "value": "b"})
        assert not graph.objects("m1", "v")
        apply_mutation(graph, {"op": "remove_edge", "subject": entity, "predicate": "p", "object": "m1"})
        apply_mutation(graph, {"op": "retype_entity", "id": "m1", "type": "ingest_other"})
        assert graph.entity_type("m1") == "ingest_other"

    def test_unknown_op_raises(self):
        with pytest.raises(IngestError, match="unknown ingest op"):
            apply_mutation(small_dataset().graph, {"op": "explode"})

    def test_missing_fields_raise(self):
        with pytest.raises(IngestError, match="missing field"):
            apply_mutation(small_dataset().graph, {"op": "add_edge", "subject": "x"})

    def test_graph_rejections_are_wrapped(self):
        # an edge between unknown entities is an IngestError, so the service
        # maps it to a client error (400), never a 500
        with pytest.raises(IngestError, match="failed"):
            apply_mutation(
                small_dataset().graph,
                {"op": "add_edge", "subject": "nope", "predicate": "p", "object": "nope2"},
            )

    @pytest.mark.parametrize(
        "op",
        [
            {"op": "add_entity", "id": "zz", "type": 5},
            {"op": "add_entity", "id": 5, "type": "T0_1"},
            {"op": "retype_entity", "id": "e0_1_0", "type": ["T0_2"]},
            {"op": "add_value", "subject": "e0_1_0", "predicate": 7, "value": "v"},
            {"op": "add_edge", "subject": "e0_1_0", "predicate": None, "object": "e0_1_1"},
            {"op": "add_edge", "subject": "e0_1_0", "predicate": "p", "object": 3},
            {"op": "set_value", "subject": {"id": "e0_1_0"}, "predicate": "p", "value": "v"},
        ],
        ids=lambda op: f"{op['op']}",
    )
    def test_a_non_string_name_is_refused_before_the_graph_moves(self, op):
        graph = small_dataset().graph
        before = graph.copy(), graph.version, graph.content_fingerprint()
        with pytest.raises(IngestError, match="string"):
            apply_mutation(graph, op)
        assert (graph, graph.version, graph.content_fingerprint()) == before


class TestIterJsonl:
    def test_skips_blanks_and_comments(self):
        stream = io.StringIO('\n# header\n{"op": "x"}\n\n{"op": "y"}\n')
        assert list(iter_jsonl(stream)) == [{"op": "x"}, {"op": "y"}]

    def test_bad_json_reports_line_number(self):
        with pytest.raises(IngestError, match="line 2"):
            list(iter_jsonl(io.StringIO('{"op": "x"}\nnot json\n')))

    def test_non_object_rejected(self):
        with pytest.raises(IngestError, match="JSON object"):
            list(iter_jsonl(io.StringIO("[1, 2]\n")))


class TestPercentile:
    """Nearest rank: the value at rank ``ceil(q * n)``, counting from 1."""

    def test_twenty_samples(self):
        samples = [float(v) for v in range(1, 21)]
        assert _percentile(samples, 0.50) == 10.0
        assert _percentile(samples, 0.95) == 19.0

    def test_four_samples_median_is_the_second(self):
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0

    def test_one_sample_is_every_percentile(self):
        assert _percentile([7.0], 0.50) == _percentile([7.0], 0.95) == 7.0

    def test_no_samples_read_zero(self):
        assert _percentile([], 0.50) == _percentile([], 0.95) == 0.0


class TestIngestPipeline:
    def test_streamed_result_identical_to_batch_full_run(self):
        """The tentpole identity: streamed ≡ from-scratch on the final graph."""
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("EMOptVC")
        pipeline = IngestPipeline(session, latency_budget=60.0, max_batch_ops=3)
        report = pipeline.run(iter(mutation_ops(dataset.graph)))
        assert report.ops_applied == 10
        assert report.batches == 4  # ceil(10 / 3): the tail flush is partial
        full = chase(dataset.graph, dataset.keys)
        assert sorted(pipeline.last_result.pairs()) == sorted(full.pairs())

    def test_batches_run_incrementally_with_snapshot_patches(self):
        dataset = small_dataset(seed=5)
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("EMOptVC")
        pipeline = IngestPipeline(session, latency_budget=60.0, max_batch_ops=2)
        ops = mutation_ops(dataset.graph, count=4)
        ops.append(renaming_ops(dataset.graph, dataset.keys)[0])
        report = pipeline.run(iter(ops))
        assert report.delta_modes.get("incremental", 0) >= 1
        assert "full" not in report.delta_modes
        info = session.cache_info()
        assert info.snapshot_patches == report.batches
        assert info.snapshot_builds == 1  # only the pre-stream baseline

    def test_zero_budget_flushes_every_op(self):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        ops = mutation_ops(dataset.graph, count=3)
        report = IngestPipeline(session, latency_budget=0.0).run(iter(ops))
        assert report.batches == report.ops_applied == len(ops)

    def test_staleness_covers_every_mutation(self):
        """p95/max staleness ≤ elapsed: each op waits at most one batch."""
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        report = IngestPipeline(
            session, latency_budget=60.0, max_batch_ops=4
        ).run(iter(mutation_ops(dataset.graph)))
        assert 0.0 < report.staleness_p50 <= report.staleness_p95
        assert report.staleness_p95 <= report.staleness_max <= report.elapsed_seconds
        assert report.mutations_per_second > 0

    def test_empty_stream_is_a_no_op(self):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        report = IngestPipeline(session).run(iter(()))
        assert report.ops_applied == report.batches == 0
        assert pytest.approx(0.0) == report.staleness_max

    def test_on_batch_callback_sees_each_flush(self):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        seen = []
        pipeline = IngestPipeline(
            session,
            latency_budget=60.0,
            max_batch_ops=2,
            on_batch=lambda result, report: seen.append(report.batches),
        )
        report = pipeline.run(iter(mutation_ops(dataset.graph, count=4)))
        assert seen == list(range(1, report.batches + 1))

    def test_bad_parameters_rejected(self):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        with pytest.raises(IngestError):
            IngestPipeline(session, latency_budget=-1.0)
        with pytest.raises(IngestError):
            IngestPipeline(session, max_batch_ops=0)

    def test_ingest_stream_parses_jsonl(self):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        ops = mutation_ops(dataset.graph, count=2)
        text = "\n".join(json.dumps(op) for op in ops) + "\n# done\n"
        report = ingest_stream(
            session, io.StringIO(text), latency_budget=60.0, max_batch_ops=10
        )
        assert report.ops_applied == len(ops)
        assert report.batches == 1
        assert sorted(report.ops_by_kind) == sorted(
            {op["op"] for op in ops}
        )

    def test_report_as_dict_round_trips_through_json(self):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        report = IngestPipeline(session, latency_budget=60.0, max_batch_ops=5).run(
            iter(mutation_ops(dataset.graph, count=3))
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ops_applied"] == report.ops_applied
        assert payload["mutations_per_second"] == pytest.approx(
            report.mutations_per_second
        )


class TestStoreAfterPublication:
    """The snapshot store is written after a flush publishes, beside the WAL
    checkpoint, never inside the flush's ``rerun()``."""

    def test_each_version_is_published_then_stored_and_a_restart_hits_the_store(
        self, tmp_path
    ):
        from repro.core.fingerprint import fingerprint_of
        from repro.storage.store import SnapshotStore

        published = []  # (fingerprint, result) in publication order
        stored = []  # (fingerprint, pipeline.last_result) when each patch ran

        class WatchedStore(SnapshotStore):
            def patch(self, snapshot, *, base, fingerprint):
                stored.append((fingerprint, pipeline.last_result))
                return super().patch(snapshot, base=base, fingerprint=fingerprint)

        dataset = small_dataset()
        graph = dataset.graph
        store = WatchedStore(tmp_path / "store")
        session = MatchSession(graph, snapshot_store=store).with_keys(dataset.keys)
        session.using("EMOptVC").run()
        pipeline = IngestPipeline(
            session, latency_budget=60.0, max_batch_ops=3, deadline_flush=False,
            on_batch=lambda result, _report: published.append((fingerprint_of(graph), result)),
        )
        ops = mutation_ops(graph)
        pipeline.run(iter(ops))
        # every patch found the result of its own version already published
        assert len(published) == len(stored) == -(-len(ops) // 3)
        assert [(fp, id(r)) for fp, r in stored] == [(fp, id(r)) for fp, r in published]
        assert all(store.contains(fingerprint) for fingerprint, _ in published)
        assert session.cache_info().store_write_failures == 0

        # a restarted process parses the graph afresh: it holds no snapshot
        restarted = MatchSession(unpublished(graph), snapshot_store=store).with_keys(dataset.keys)
        assert restarted.run("EMOptVC").pairs() == pipeline.last_result.pairs()
        assert restarted.cache_info().store_hits == 1


class TestDeadlineFlush:
    def test_stalled_stream_flushes_on_deadline(self):
        """The documented promise: a flush starts at most latency_budget
        seconds after a mutation lands — even when the *next* op never
        arrives (follow mode on a quiet journal)."""
        import threading

        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        entity = sorted(dataset.graph.entity_ids())[0]
        flushed = threading.Event()
        pipeline = IngestPipeline(
            session,
            latency_budget=0.05,
            on_batch=lambda result, report: flushed.set(),
        )

        def stalled_stream():
            yield {"op": "add_value", "subject": entity, "predicate": "stall", "value": "v"}
            # the stream now stalls; only the watchdog can flush the op
            assert flushed.wait(10.0), "deadline flush never fired on a stalled stream"

        report = pipeline.run(stalled_stream())
        assert flushed.is_set()
        assert report.ops_applied == 1 and report.batches >= 1

    def test_watchdog_flush_error_reaches_the_caller(self):
        """A flush failing on the watchdog thread must surface as an
        IngestFlushError from run(), never die silently in the thread."""
        import threading

        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        entity = sorted(dataset.graph.entity_ids())[0]

        original_rerun = session.rerun
        failed = threading.Event()

        def broken_rerun(**options):
            failed.set()
            raise RuntimeError("induced watchdog flush failure")

        session.rerun = broken_rerun
        try:
            pipeline = IngestPipeline(session, latency_budget=0.05)

            def stalled_stream():
                yield {"op": "add_value", "subject": entity, "predicate": "wd", "value": "v"}
                assert failed.wait(10.0)
                yield {"op": "add_value", "subject": entity, "predicate": "wd", "value": "w"}

            with pytest.raises(IngestFlushError):
                pipeline.run(stalled_stream())
        finally:
            session.rerun = original_rerun


class TestBackpressureWindow:
    def test_max_pending_ops_bounds_the_window(self):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        ops = mutation_ops(dataset.graph, count=6)  # 10 ops
        report = IngestPipeline(
            session, latency_budget=60.0, max_pending_ops=2
        ).run(iter(ops))
        assert report.ops_applied == 10
        assert report.batches == 5  # the window never exceeds 2 pending ops

    def test_bad_max_pending_ops_rejected(self):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        with pytest.raises(IngestError):
            IngestPipeline(session, max_pending_ops=0)


class TestFailedFlush:
    def test_failed_flush_surfaces_partial_report_and_keeps_wal_open(
        self, tmp_path
    ):
        """ISSUE satellite: rerun() raising inside flush() must not lose
        the window — the partial report counts the uncovered ops and the
        WAL window stays un-checkpointed so replay/retry can cover it."""
        from repro.service.wal import WriteAheadLog

        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        entity = sorted(dataset.graph.entity_ids())[0]
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        ops = [
            {"op": "add_value", "subject": entity, "predicate": "ff", "value": f"v{i}"}
            for i in range(3)
        ]

        original_rerun = session.rerun

        def broken_rerun(**options):
            raise RuntimeError("induced flush failure")

        session.rerun = broken_rerun
        try:
            pipeline = IngestPipeline(
                session, latency_budget=60.0, wal=wal, deadline_flush=False
            )
            with pytest.raises(IngestFlushError) as excinfo:
                pipeline.run(iter(ops))
        finally:
            session.rerun = original_rerun

        error = excinfo.value
        assert error.report.ops_applied == 3
        assert error.report.ops_unflushed == 3
        assert error.report.batches == 0
        # the ops ARE on the live graph (that is the inconsistency being
        # reported) and ARE journalled, but no checkpoint covers them
        assert wal.pending_count == 3
        assert wal.checkpoints_written == 0
        assert len(wal.state().pending_ops) == 3

        # a retry flush through a healthy session covers the window and
        # checkpoints the journal
        retry = IngestPipeline(
            session, latency_budget=60.0, wal=wal, deadline_flush=False
        )
        report = retry.run(iter(()))  # empty stream: nothing new to apply
        assert report.ops_applied == 0
        # the uncovered ops still need a flush: push one no-op-sized window
        report = retry.run(
            iter([{"op": "add_value", "subject": entity, "predicate": "ff", "value": "v3"}])
        )
        assert report.batches == 1
        assert wal.pending_count == 0
        full = chase(dataset.graph, dataset.keys)
        assert sorted(retry.last_result.pairs()) == sorted(full.pairs())
        wal.close()

    def test_rejected_op_is_disowned_in_the_wal(self, tmp_path):
        """An op the graph refuses must not replay: append-before-apply
        pairs with a failure marker."""
        from repro.service.wal import WriteAheadLog

        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        pipeline = IngestPipeline(
            session, latency_budget=60.0, wal=wal, deadline_flush=False
        )
        bad = {"op": "add_edge", "subject": "nope", "predicate": "p", "object": "nope2"}
        with pytest.raises(IngestError):
            pipeline.run(iter([bad]))
        assert wal.appends == 1
        assert wal.pending_count == 0
        assert wal.state().ops == []  # the failure marker disowned it
        wal.close()


class TestIngestCLI:
    @pytest.fixture
    def music_files(self, tmp_path):
        from repro.core.parser import save_graph, save_keys

        graph, keys = music_dataset()
        graph_path = tmp_path / "music.graph"
        keys_path = tmp_path / "music.keys"
        save_graph(graph, graph_path)
        save_keys(keys, keys_path)
        return graph, str(graph_path), str(keys_path)

    def test_ingest_command_reports_throughput_and_staleness(
        self, music_files, tmp_path, capsys
    ):
        from repro.cli import main

        graph, graph_path, keys_path = music_files
        ops_path = tmp_path / "ops.jsonl"
        entity = sorted(graph.entity_ids())[0]
        ops_path.write_text(
            "\n".join(
                json.dumps(
                    {"op": "add_value", "subject": entity, "predicate": "cli_probe", "value": f"v{i}"}
                )
                for i in range(4)
            )
        )
        exit_code = main(
            ["ingest", "--graph", graph_path, "--keys", keys_path,
             "--ops", str(ops_path), "--batch-ops", "2",
             "--latency-budget", "60", "--snapshot-store", str(tmp_path / "snaps")]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "ops applied    : 4" in output
        assert "batches        : 2" in output
        assert "mutations/s" in output
        assert "staleness" in output
        assert "patch(es)" in output

    def test_ingest_json_report(self, music_files, tmp_path, capsys):
        from repro.cli import main

        graph, graph_path, keys_path = music_files
        ops_path = tmp_path / "ops.jsonl"
        entity = sorted(graph.entity_ids())[0]
        ops_path.write_text(
            json.dumps({"op": "add_value", "subject": entity, "predicate": "p", "value": "x"})
        )
        exit_code = main(
            ["ingest", "--graph", graph_path, "--keys", keys_path,
             "--ops", str(ops_path), "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ops_applied"] == 1
        assert payload["batches"] == 1
        assert "identified" in payload

    def test_ingest_bad_stream_is_a_clean_error(self, music_files, tmp_path, capsys):
        from repro.cli import main

        _, graph_path, keys_path = music_files
        ops_path = tmp_path / "ops.jsonl"
        ops_path.write_text('{"op": "explode"}')
        exit_code = main(
            ["ingest", "--graph", graph_path, "--keys", keys_path, "--ops", str(ops_path)]
        )
        assert exit_code == 2
        assert "unknown ingest op" in capsys.readouterr().err


class TestIngestEndpoint:
    @pytest.fixture
    def live(self):
        import threading

        from repro.service import MatchingService, make_http_server
        from test_server import ServiceClient

        service = MatchingService(max_inflight=2, max_queued=8)
        server = make_http_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(*server.server_address)
        yield service, client
        server.shutdown()
        server.server_close()
        service.close()

    @staticmethod
    def pairs_of(result_payload):
        return sorted(
            pair
            for cls in result_payload["classes"]
            for pair in itertools.combinations(sorted(cls), 2)
        )

    def test_ingest_window_returns_exact_result(self, live):
        service, client = live
        dataset = small_dataset()
        service.register_graph("g", dataset.graph, dataset.keys)
        ops = mutation_ops(dataset.graph, count=4)
        status, payload, _ = client.post(
            "/graphs/g/ingest",
            {"ops": ops, "max_batch_ops": 3, "latency_budget": 60.0},
        )
        assert status == 200, payload
        assert payload["report"]["ops_applied"] == len(ops)
        full = chase(dataset.graph, dataset.keys)
        assert self.pairs_of(payload["result"]) == sorted(full.pairs())

    def test_second_window_stays_incremental(self, live):
        """The persistent per-graph ingest session seeds across windows."""
        service, client = live
        dataset = small_dataset(seed=9)
        rename, rename_back = renaming_ops(dataset.graph, dataset.keys)
        service.register_graph("g", dataset.graph, dataset.keys)
        client.post("/graphs/g/ingest", {"ops": [rename]})
        status, payload, _ = client.post("/graphs/g/ingest", {"ops": [rename_back]})
        assert status == 200
        assert payload["report"]["delta_modes"] == {"incremental": 1}
        status, graphs, _ = client.get("/graphs")
        entry = graphs["graphs"][0]
        assert entry["ingested_ops"] == 2
        assert entry["ingest_batches"] == 2
        assert entry["cache"]["snapshot_patches"] >= 1

    def test_bad_ops_and_unknown_graph_map_to_client_errors(self, live):
        service, client = live
        dataset = small_dataset()
        service.register_graph("g", dataset.graph, dataset.keys)
        status, payload, _ = client.post("/graphs/g/ingest", {"ops": [{"op": "explode"}]})
        assert status == 400 and "unknown ingest op" in payload["error"]
        status, payload, _ = client.post("/graphs/nope/ingest", {"ops": []})
        assert status == 404
        status, payload, _ = client.post("/graphs/g/ingest", {"ops": "not a list"})
        assert status == 400
        status, payload, _ = client.post("/graphs/g/ingest", {"ops": [], "wat": 1})
        assert status == 400

    def test_a_non_string_field_is_a_400_and_leaves_the_journal_recoverable(
        self, tmp_path
    ):
        """A WAL-backed service answers a non-string type with 400 (the WAL
        marks the op failed), the next valid window with 200, and a restart
        on that journal recovers the graph the valid window left."""
        import threading

        from repro.service import MatchingService, make_http_server
        from repro.service.registry import GraphRegistry
        from test_server import ServiceClient

        dataset = small_dataset()
        service = MatchingService(max_inflight=2, max_queued=8, wal_root=tmp_path / "wal")
        server = make_http_server(service, host="127.0.0.1", port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(*server.server_address)
        try:
            service.register_graph("g", dataset.graph, dataset.keys)
            before = (dataset.graph.version, dataset.graph.content_fingerprint())
            bad = {"op": "add_entity", "id": "zz", "type": 5}
            status, payload, _ = client.post("/graphs/g/ingest", {"ops": [bad]})
            assert status == 400 and "string" in payload["error"], payload
            assert not dataset.graph.has_entity("zz")
            assert (dataset.graph.version, dataset.graph.content_fingerprint()) == before
            good = {"op": "add_entity", "id": "zz", "type": "T0_1"}
            status, payload, _ = client.post("/graphs/g/ingest", {"ops": [good]})
            assert status == 200, payload
            final = dataset.graph.content_fingerprint()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        rebuilt = small_dataset()
        registry = GraphRegistry(wal_root=tmp_path / "wal")
        registry.register("g", rebuilt.graph, rebuilt.keys)
        assert registry.get("g").last_recovery["ops_replayed"] == 1
        assert rebuilt.graph.entity_type("zz") == "T0_1"
        assert rebuilt.graph.content_fingerprint() == final
        registry.close()

    def test_empty_window_answers_with_an_exact_result(self, live):
        service, client = live
        dataset = small_dataset()
        service.register_graph("g", dataset.graph, dataset.keys)
        status, payload, _ = client.post("/graphs/g/ingest", {"ops": []})
        assert status == 200
        assert payload["report"]["ops_applied"] == 0
        full = chase(dataset.graph, dataset.keys)
        assert self.pairs_of(payload["result"]) == sorted(full.pairs())


class TestMatchDuringIngest:
    """``/match`` against a graph that is taking ingest windows.

    A read runs under the graph's ingest lock, so it sees the graph at a
    window boundary — never a half-applied window, whose dicts another
    thread is still resizing.
    """

    WINDOWS = 24
    PAIRS = 8

    @staticmethod
    def paired_albums(pairs):
        from repro import Graph, parse_keys

        keys = parse_keys(
            "key album_by_name_and_year for album:\n"
            "  x -[name_of]-> name*\n"
            "  x -[release_year]-> year*\n"
        )
        graph = Graph()
        for index in range(pairs):
            for side in "ab":
                graph.add_entity(f"{side}{index}", "album")
                graph.add_value(f"{side}{index}", "name_of", f"Album {index}")
            graph.add_value(f"a{index}", "release_year", str(1960 + index))
        return graph, keys

    def window(self, index):
        """Identify pair ``index % PAIRS`` (or split it again), plus churn
        that resizes the graph's entity and adjacency dicts."""
        pair, on = index % self.PAIRS, (index // self.PAIRS) % 2 == 0
        year = {"subject": f"b{pair}", "predicate": "release_year",
                "value": str(1960 + pair)}
        ops = [dict(year, op="add_value" if on else "remove_value")]
        for churn in range(6):
            eid = f"churn-{index}-{churn}"
            ops.append({"op": "add_entity", "id": eid, "type": "album"})
            ops.append({"op": "add_value", "subject": eid,
                        "predicate": "name_of", "value": eid})
        return ops

    def test_concurrent_reads_see_window_boundaries(self):
        import sys
        import threading

        from repro.api.config import MatchConfig
        from repro.service.registry import GraphRegistry

        graph, keys = self.paired_albums(self.PAIRS)
        twin, _ = self.paired_albums(self.PAIRS)
        windows = [self.window(index) for index in range(self.WINDOWS)]
        boundaries = [sorted(chase(twin, keys).pairs())]
        for ops in windows:
            for op in ops:
                apply_mutation(twin, op)
            boundaries.append(sorted(chase(twin, keys).pairs()))

        entry = GraphRegistry().register("hot", graph, keys)
        config = MatchConfig(algorithm="EMOptVC", blocking="auto")
        reads, failures = [], []
        done = threading.Event()

        # two shapes: one is the writer's (its window's result is held), the
        # other lags the shared cache after every window and re-solves
        shapes = (config, MatchConfig(algorithm="EMOptMR"))

        def reader(shape):
            while not done.is_set():
                try:
                    reads.append(sorted(entry.match(shape).result.pairs()))
                except Exception as error:  # the regression: a torn read
                    failures.append(error)

        readers = [
            threading.Thread(target=reader, args=(shapes[n % 2],), daemon=True)
            for n in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for ops in windows:
                _report, result = entry.ingest(ops, config=config)
            done.set()
            for thread in readers:
                thread.join(timeout=60.0)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert failures == []
        assert sorted(result.pairs()) == boundaries[-1]
        assert reads and all(read in boundaries for read in reads)
