"""Tests of the write-ahead op journal and crash recovery.

The durability contract under test: every ingest op is journalled before
it touches the graph, every flush checkpoints the journal with the
post-flush content fingerprint, and a process killed mid-ingest recovers
on restart by replaying the un-covered suffix onto the graph and solving
**once** — with a final ``Eq`` **bit-identical** to the uninterrupted run
and the fingerprint accumulator verified against every checkpoint passed.

Every "is this ``Eq`` right" check reads the Section 2 oracle
(``tests/naive_semantics.reference_fixpoint``), never the ``src/`` chase;
the oracle bounds the journalled graphs to ~40 entities (the 36-entity
synthetic graph of :func:`small_dataset` plus a handful of ingested ones).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.api.session import MatchSession
from repro.core.fingerprint import fingerprint_of, graph_fingerprint
from repro.datasets.synthetic import synthetic_dataset
from repro.exceptions import WalError
from repro.service.ingest import IngestPipeline, apply_mutation
from repro.service.wal import WriteAheadLog, replay
from tests.naive_semantics import reference_fixpoint


def small_dataset(seed=3):
    return synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=seed
    )


def mutation_ops(graph, count=6):
    """The same deterministic op stream test_ingest uses (10 ops)."""
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


def probe_ops(n, tag="w"):
    return [
        {"op": "add_entity", "id": f"{tag}{i}", "type": "wal_probe"} for i in range(n)
    ]


FP_A = "a" * 64
FP_B = "b" * 64


class TestWalBasics:
    def test_append_checkpoint_roundtrip_across_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off", base_fingerprint=FP_A)
        for op in probe_ops(3):
            wal.append(op)
        assert wal.pending_count == 3
        covered = wal.checkpoint(FP_B, note="t")
        assert covered == 3 and wal.pending_count == 0
        wal.append({"op": "add_entity", "id": "tail", "type": "wal_probe"})
        wal.close()

        reopened = WriteAheadLog(tmp_path / "wal", fsync="off")
        assert reopened.pending_count == 1
        state = reopened.state()
        assert state.base_fingerprint == FP_A
        assert [op["id"] for op in state.ops] == ["w0", "w1", "w2", "tail"]
        assert len(state.checkpoints) == 1
        assert state.checkpoints[0].fingerprint == FP_B
        assert state.checkpoints[0].position == 3
        assert state.checkpoints[0].note == "t"
        assert [op["id"] for op in state.pending_ops] == ["tail"]
        assert state.last_fingerprint == FP_B
        reopened.close()

    def test_bad_options_rejected(self, tmp_path):
        with pytest.raises(WalError, match="fsync"):
            WriteAheadLog(tmp_path / "w1", fsync="sometimes")
        with pytest.raises(WalError, match="retention"):
            WriteAheadLog(tmp_path / "w2", retain="forever")
        with pytest.raises(WalError, match="segment_max_bytes"):
            WriteAheadLog(tmp_path / "w3", segment_max_bytes=0)

    def test_mark_failed_disowns_the_last_op(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        wal.append(probe_ops(1)[0])
        wal.append({"op": "add_edge", "subject": "no", "predicate": "p", "object": "pe"})
        wal.mark_failed()
        assert wal.pending_count == 1
        state = wal.state()
        assert [op["op"] for op in state.ops] == ["add_entity"]
        wal.close()

    def test_mark_failed_with_nothing_pending_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        with pytest.raises(WalError, match="no pending op"):
            wal.mark_failed()
        wal.close()

    def test_closed_wal_refuses_writes(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append(probe_ops(1)[0])
        with pytest.raises(WalError, match="closed"):
            wal.checkpoint(FP_A)

    def test_fsync_policy_counters(self, tmp_path):
        always = WriteAheadLog(tmp_path / "always", fsync="always")
        for op in probe_ops(2):
            always.append(op)
        always.checkpoint(FP_A)
        assert always.fsync_calls >= 3  # one per append + the checkpoint
        always.close()

        batch = WriteAheadLog(tmp_path / "batch", fsync="batch")
        for op in probe_ops(2):
            batch.append(op)
        assert batch.fsync_calls == 0
        batch.checkpoint(FP_A)
        assert batch.fsync_calls == 1
        batch.close()

        off = WriteAheadLog(tmp_path / "off", fsync="off")
        for op in probe_ops(2):
            off.append(op)
        off.checkpoint(FP_A)
        off.close()
        assert off.fsync_calls == 0

    def test_metrics_shape(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="batch", base_fingerprint=FP_A)
        wal.append(probe_ops(1)[0])
        wal.checkpoint(FP_B)
        metrics = wal.metrics()
        for key in (
            "root", "fsync_policy", "retain", "segments", "segments_created",
            "segments_removed", "appends", "checkpoints", "pending_ops",
            "bytes_written", "fsync_calls", "replays", "replayed_ops",
            "repaired_tail_bytes",
        ):
            assert key in metrics
        assert metrics["appends"] == 1 and metrics["checkpoints"] == 1
        assert metrics["pending_ops"] == 0 and metrics["segments"] == 1
        wal.close()


class TestTornTail:
    def test_torn_final_line_is_repaired_on_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off", base_fingerprint=FP_A)
        for op in probe_ops(2):
            wal.append(op)
        wal.checkpoint(FP_B)
        wal.close()
        segment = sorted((tmp_path / "wal").iterdir())[-1]
        with open(segment, "ab") as handle:
            handle.write(b'{"op": "add_entity", "id": "to')  # the crash tore this write

        reopened = WriteAheadLog(tmp_path / "wal", fsync="off")
        assert reopened.repaired_tail_bytes > 0
        state = reopened.state()
        assert not state.torn_tail  # the reopen already truncated it away
        assert len(state.ops) == 2 and reopened.pending_count == 0
        # the repaired journal accepts new writes on the same segment
        reopened.append(probe_ops(1, tag="post")[0])
        assert reopened.pending_count == 1
        reopened.close()

    def test_mid_file_corruption_is_fatal(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off", base_fingerprint=FP_A)
        for op in probe_ops(3):
            wal.append(op)
        wal.checkpoint(FP_B)
        wal.close()
        segment = sorted((tmp_path / "wal").iterdir())[-1]
        lines = segment.read_bytes().split(b"\n")
        lines[1] = b"\x00\xff not json"  # a complete (newline-terminated) bad line
        segment.write_bytes(b"\n".join(lines))
        with pytest.raises(WalError, match="corrupt WAL record"):
            WriteAheadLog(tmp_path / "wal", fsync="off")


class TestSegments:
    def test_rollover_is_checkpoint_aligned(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "wal", fsync="off", segment_max_bytes=1,
            base_fingerprint=FP_A,
        )
        for round_ in range(3):
            wal.append(probe_ops(1, tag=f"r{round_}_")[0])
            wal.checkpoint(f"{round_:064d}")
        assert wal.segments_created >= 3
        assert wal.segments_removed == 0  # retain="all" keeps history
        state = wal.state()
        assert state.base_fingerprint == FP_A  # oldest segment still anchors
        assert len(state.ops) == 3 and len(state.checkpoints) == 3
        wal.close()

    def test_window_retention_drops_covered_segments(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "wal", fsync="off", retain="window", segment_max_bytes=1,
            base_fingerprint=FP_A,
        )
        for round_ in range(4):
            wal.append(probe_ops(1, tag=f"r{round_}_")[0])
            wal.checkpoint(f"{round_:064d}")
        assert wal.segments_removed >= 1
        assert wal.metrics()["segments"] < wal.segments_created
        # the retained window re-anchors at a checkpoint fingerprint, so
        # recovery from that state is still well-defined
        state = wal.state()
        assert state.base_fingerprint is not None
        assert state.base_fingerprint != FP_A
        wal.close()


class TestRecoveryPlan:
    def _journalled_run(self, tmp_path):
        """A real checkpointed run: 4 ops in 2 flushed batches."""
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        base_fp = fingerprint_of(dataset.graph)
        wal = WriteAheadLog(tmp_path / "wal", fsync="off", base_fingerprint=base_fp)
        ops = mutation_ops(dataset.graph)[:4]
        IngestPipeline(
            session, latency_budget=60.0, max_batch_ops=2,
            wal=wal, deadline_flush=False,
        ).run(iter(ops))
        return dataset, session, wal, base_fp, ops

    def test_plan_from_base_midpoint_and_tip(self, tmp_path):
        dataset, _session, wal, base_fp, _ops = self._journalled_run(tmp_path)
        state = wal.state()
        assert len(state.checkpoints) == 2
        mid_fp = state.checkpoints[0].fingerprint
        tip_fp = fingerprint_of(dataset.graph)
        assert tip_fp == state.checkpoints[1].fingerprint

        from_base = wal.recovery_plan(base_fp)
        assert [len(span.ops) for span in from_base] == [2, 2]
        assert [span.expected_fingerprint for span in from_base] == [mid_fp, tip_fp]
        from_mid = wal.recovery_plan(mid_fp)
        assert [len(span.ops) for span in from_mid] == [2]
        assert wal.recovery_plan(tip_fp) == []
        wal.close()

    def test_plan_includes_uncheckpointed_tail(self, tmp_path):
        dataset, _session, wal, base_fp, _ops = self._journalled_run(tmp_path)
        wal.append({"op": "add_entity", "id": "tail", "type": "wal_probe"})
        spans = wal.recovery_plan(fingerprint_of(dataset.graph))
        assert len(spans) == 1
        assert spans[0].expected_fingerprint is None
        assert [op["id"] for op in spans[0].ops] == ["tail"]
        wal.close()

    def test_unrecognized_fingerprint_is_fatal(self, tmp_path):
        _dataset, _session, wal, _base_fp, _ops = self._journalled_run(tmp_path)
        with pytest.raises(WalError, match="does not describe this graph"):
            wal.recovery_plan("f" * 64)
        wal.close()

    def test_empty_journal_plans_nothing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", fsync="off", base_fingerprint=FP_A)
        assert wal.recovery_plan(FP_A) == []
        assert not wal.has_records()
        wal.close()


class TestReplayIdentity:
    def test_simulated_crash_replay_is_bit_identical(self, tmp_path):
        """Crash between a checkpoint and the next flush: the restart
        replays the checkpointed prefix AND the applied-but-uncovered tail,
        and the continued run ends bit-identical to an uninterrupted one."""
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        base_fp = fingerprint_of(dataset.graph)
        ops = mutation_ops(dataset.graph)
        assert len(ops) == 10

        wal = WriteAheadLog(tmp_path / "wal", fsync="off", base_fingerprint=base_fp)
        IngestPipeline(
            session, latency_budget=60.0, max_batch_ops=4,
            wal=wal, deadline_flush=False,
        ).run(iter(ops[:4]))
        assert wal.checkpoints_written == 1
        # the crash window: ops journalled and applied but never flushed —
        # the WAL object is abandoned without close(), like a SIGKILL
        for op in ops[4:7]:
            wal.append(op)
            apply_mutation(dataset.graph, op)

        # --- restart: a fresh process state at the journal base -------------
        restarted = small_dataset()
        session2 = MatchSession(restarted.graph).with_keys(restarted.keys)
        session2.run("chase")
        assert fingerprint_of(restarted.graph) == base_fp
        wal2 = WriteAheadLog(tmp_path / "wal", fsync="off")
        report = replay(wal2, session2)
        assert report.ops_replayed == 7
        assert report.checkpoints_verified == 1
        assert report.pending_replayed == 3
        assert report.final_fingerprint == fingerprint_of(restarted.graph)
        # the recovery checkpoint covers the journal: a second restart
        # replays nothing
        assert wal2.pending_count == 0
        again = replay(wal2, session2)
        assert again.ops_replayed == 0

        # --- continue the stream where the crash cut it ----------------------
        pipeline = IngestPipeline(
            session2, latency_budget=60.0, max_batch_ops=4,
            wal=wal2, deadline_flush=False,
        )
        pipeline.run(iter(ops[7:]))

        # --- the uninterrupted twin ------------------------------------------
        twin = small_dataset()
        for op in ops:
            apply_mutation(twin.graph, op)
        # equal pair sets are equal partitions: Eq is transitively closed
        assert pipeline.last_result.pairs() == reference_fixpoint(twin.graph, twin.keys)
        assert fingerprint_of(session2.graph) == graph_fingerprint(twin.graph)
        wal2.close()

    def test_replay_rejects_a_journal_from_another_graph(self, tmp_path):
        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        wal = WriteAheadLog(
            tmp_path / "wal", fsync="off", base_fingerprint=FP_A
        )
        wal.append({"op": "add_entity", "id": "x", "type": "wal_probe"})
        wal.checkpoint(FP_B)
        with pytest.raises(WalError, match="does not describe this graph"):
            replay(wal, session)
        wal.close()


def _duplicate(chain, entity, twin):
    """Make ``e{chain}_2_{entity}`` a duplicate of ``e{chain}_2_{twin}``
    under the chain's leaf key (same name, same locator one hop out)."""
    return [
        {"op": "set_value", "subject": f"e{chain}_2_{entity}",
         "predicate": "name_of", "value": f"name_{chain}_2_{twin}"},
        {"op": "set_value", "subject": f"aux_{chain}_2_{entity}_1",
         "predicate": "locator_of", "value": f"loc_{chain}_2_{twin}"},
    ]


def windowed_ops():
    """Six windows on :func:`small_dataset`; each one moves the fixpoint:
    identifications appear, break (taking the recursive key's dependent
    pair with them), come back, and a class grows to three."""
    return [
        _duplicate(0, 1, 2),
        [{"op": "set_value", "subject": "e0_2_0_dup", "predicate": "name_of",
          "value": "renamed"}],
        _duplicate(1, 1, 2) + [{"op": "add_entity", "id": "rw", "type": "wal_probe"}],
        [{"op": "set_value", "subject": "e0_2_0_dup", "predicate": "name_of",
          "value": "name_0_2_0"}],
        [{"op": "remove_value", "subject": "e1_2_0_dup", "predicate": "name_of",
          "value": "name_1_2_0"}],
        _duplicate(0, 3, 2),
    ]


def journal_of_windows(root, windows, *, pending):
    """Write a journal of checkpointed *windows* plus one *pending* window
    (journalled and applied, never flushed), as a crashed process leaves it."""
    dataset = small_dataset()
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    session.run("chase")
    wal = WriteAheadLog(
        root, fsync="off", base_fingerprint=fingerprint_of(dataset.graph)
    )
    pipeline = IngestPipeline(
        session, latency_budget=60.0, wal=wal, deadline_flush=False
    )
    for ops in windows:
        pipeline.run(iter(ops))
    assert wal.checkpoints_written == len(windows)
    for op in pending:
        wal.append(op)
    wal.close()


class TestRecoveryIsOneSolve:
    """Recovery applies every span, verifies every checkpoint against the
    O(1) fingerprint accumulator, and solves once — whatever the number of
    journalled windows."""

    @pytest.fixture
    def dispatches(self, monkeypatch):
        """Every backend dispatch, by algorithm name."""
        from repro.api.registry import AlgorithmSpec

        seen = []
        original = AlgorithmSpec.run

        def counted(self, *args, **kwargs):
            seen.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AlgorithmSpec, "run", counted)
        return seen

    def test_five_checkpointed_windows_and_a_pending_one_recover_with_one_solve(
        self, tmp_path, dispatches
    ):
        *checkpointed, pending = windowed_ops()
        journal_of_windows(tmp_path / "wal", checkpointed, pending=pending)

        restarted = small_dataset()
        session = MatchSession(restarted.graph).with_keys(restarted.keys).using("EMOptVC")
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        del dispatches[:]
        batches = []
        report = replay(
            wal, session, on_batch=lambda result, rep: batches.append((result, rep.batches))
        )
        assert report.batches == 1
        assert report.checkpoints_verified == 5
        assert report.ops_replayed == 10 and report.pending_replayed == 2
        assert dispatches == ["EMOptVC"]  # exactly one solve
        assert session.last_delta().mode == "full"  # nothing to seed from
        assert len(batches) == 1 and batches[0][1] == 1

        twin = small_dataset()
        for ops in checkpointed + [pending]:
            for op in ops:
                apply_mutation(twin.graph, op)
        result = batches[0][0]
        assert result is session.history[-1][1]
        assert result.pairs() == reference_fixpoint(twin.graph, twin.keys)
        assert report.final_fingerprint == graph_fingerprint(twin.graph)
        assert fingerprint_of(restarted.graph) == graph_fingerprint(twin.graph)

        # the recovery checkpoint covers the journal: nothing left to replay
        del dispatches[:]
        again = replay(wal, session)
        assert (again.ops_replayed, again.batches, again.checkpoints_verified) == (0, 0, 0)
        assert dispatches == []
        assert wal.metrics()["replays"] == 2
        wal.close()

    def test_a_seed_at_the_journal_base_recovers_as_one_delta_window(
        self, tmp_path, dispatches
    ):
        *checkpointed, pending = windowed_ops()
        journal_of_windows(tmp_path / "wal", checkpointed, pending=pending)

        restarted = small_dataset()
        session = MatchSession(restarted.graph).with_keys(restarted.keys).using("EMOptMR")
        session.run()  # holds the fixpoint of the journal base
        base_version = session.seed_version
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        del dispatches[:]
        report = replay(wal, session)
        assert report.batches == 1 and report.checkpoints_verified == 5
        assert dispatches == ["EMOptMR"]
        delta = session.last_delta()
        assert delta.mode == "incremental"  # one union window over six
        assert delta.touched_nodes > 0
        assert session.cache_info().snapshot_patches == 1
        assert session.seed_version == restarted.graph.version > base_version
        twin = small_dataset()
        for ops in checkpointed + [pending]:
            for op in ops:
                apply_mutation(twin.graph, op)
        assert session.history[-1][1].pairs() == reference_fixpoint(twin.graph, twin.keys)
        wal.close()

    def test_an_altered_checkpoint_fails_loudly_at_that_checkpoint(
        self, tmp_path, dispatches
    ):
        *checkpointed, pending = windowed_ops()
        journal_of_windows(tmp_path / "wal", checkpointed, pending=pending)
        (segment,) = sorted((tmp_path / "wal").iterdir())
        lines = segment.read_text().splitlines()
        positions = [n for n, line in enumerate(lines) if '"checkpoint"' in line]
        record = json.loads(lines[positions[2]])
        record["checkpoint"] = "c" * 64
        lines[positions[2]] = json.dumps(record, sort_keys=True)
        segment.write_text("\n".join(lines) + "\n")

        restarted = small_dataset()
        session = MatchSession(restarted.graph).with_keys(restarted.keys)
        wal = WriteAheadLog(tmp_path / "wal", fsync="off")
        del dispatches[:]
        with pytest.raises(WalError, match=r"checkpoint 3 of this recovery \(cccccccccccc"):
            replay(wal, session)
        assert dispatches == []  # a journal that lies is never solved for
        assert wal.metrics()["replays"] == 0
        wal.close()

    def test_a_rejected_op_fails_loudly_and_nothing_is_skipped(self, tmp_path):
        from repro.service.ingest import IngestError

        dataset = small_dataset()
        wal = WriteAheadLog(
            tmp_path / "wal", fsync="off",
            base_fingerprint=fingerprint_of(dataset.graph),
        )
        wal.append({"op": "add_entity", "id": "ok", "type": "wal_probe"})
        wal.append({"op": "add_edge", "subject": "ok", "predicate": "p", "object": "nobody"})
        wal.close()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        reopened = WriteAheadLog(tmp_path / "wal", fsync="off")
        with pytest.raises(IngestError, match="nobody"):
            replay(reopened, session)
        assert reopened.pending_count == 2  # no recovery checkpoint written
        reopened.close()


_CRASH_CHILD = textwrap.dedent(
    """
    import sys, time
    from repro.api.session import MatchSession
    from repro.core.fingerprint import fingerprint_of
    from repro.datasets.synthetic import synthetic_dataset
    from repro.service.ingest import IngestPipeline
    from repro.service.wal import WriteAheadLog

    wal_root, marker = sys.argv[1], sys.argv[2]
    dataset = synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=4, seed=3
    )
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    session.run("chase")
    wal = WriteAheadLog(
        wal_root, fsync="always", base_fingerprint=fingerprint_of(dataset.graph)
    )
    def endless():
        i = 0
        while True:
            yield {"op": "add_entity", "id": f"crash{i}", "type": "wal_probe"}
            i += 1
            if i == 6:
                with open(marker, "w") as handle:
                    handle.write("ready")
            if i >= 6:
                time.sleep(0.05)
    IngestPipeline(
        session, latency_budget=60.0, max_batch_ops=4,
        wal=wal, deadline_flush=False,
    ).run(endless())
    """
)


class TestCrashRecoverySubprocess:
    def test_sigkill_mid_ingest_recovers_bit_identical(self, tmp_path):
        """The ISSUE acceptance gate: SIGKILL a real process mid-ingest,
        restart, replay the WAL — the recovered Eq is bit-identical to a
        run that applied the same journalled ops uninterrupted, and the
        fingerprint accumulator matches a full recompute."""
        child_path = tmp_path / "crash_child.py"
        child_path.write_text(_CRASH_CHILD)
        wal_root = tmp_path / "wal"
        marker = tmp_path / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path_src()), env.get("PYTHONPATH", "")])
        )
        process = subprocess.Popen(
            [sys.executable, str(child_path), str(wal_root), str(marker)],
            env=env,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not marker.exists():
                if process.poll() is not None:
                    pytest.fail(f"child exited early with {process.returncode}")
                if time.monotonic() > deadline:
                    pytest.fail("child never reached the kill point")
                time.sleep(0.02)
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=10.0)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup only
                process.kill()
                process.wait(timeout=10.0)

        # --- restart -----------------------------------------------------
        wal = WriteAheadLog(wal_root, fsync="off")
        state = wal.state()
        assert len(state.ops) >= 6  # the 6 pre-marker ops made it to disk
        assert len(state.checkpoints) >= 1  # at least one batch flushed

        dataset = small_dataset()
        session = MatchSession(dataset.graph).with_keys(dataset.keys)
        session.run("chase")
        report = replay(wal, session)
        assert report.ops_replayed == len(state.ops)
        assert report.checkpoints_verified == len(state.checkpoints)
        result = session.rerun()

        # --- the uninterrupted twin over the same journalled ops ----------
        twin = small_dataset()
        from repro.service.ingest import apply_mutation as apply_op

        for op in state.ops:
            apply_op(twin.graph, op)
        assert result.pairs() == reference_fixpoint(twin.graph, twin.keys)
        assert fingerprint_of(session.graph) == graph_fingerprint(twin.graph)
        wal.close()


def Path_src():
    """The repo's src/ directory, so the crash child imports repro."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestServiceRestartRecovery:
    def test_a_refused_duplicate_registration_leaves_the_live_journal_alone(
        self, tmp_path
    ):
        """Registering a live name without ``replace`` is refused before the
        journal opens: no repair scan, no replay, no recovery checkpoint on
        the live entry's journal, and the refusal names the real reason
        whether or not the journal describes the newcomer's graph."""
        from repro.exceptions import ServiceError
        from repro.service.registry import GraphRegistry

        def journal_bytes():
            return {path.name: path.read_bytes() for path in (tmp_path / "wal" / "g").iterdir()}

        dataset = small_dataset()
        registry = GraphRegistry(wal_root=tmp_path / "wal")
        live = registry.register("g", dataset.graph, dataset.keys)
        live.ingest(mutation_ops(dataset.graph), latency_budget=60.0)
        journal = journal_bytes()
        # the live graph's base content (the journal replays onto it), and
        # another graph (the journal does not describe it)
        for other in (small_dataset(), small_dataset(seed=4)):
            with pytest.raises(ServiceError, match="already registered"):
                registry.register("g", other.graph, other.keys)
            assert journal_bytes() == journal
            assert registry.get("g") is live
        registry.close()

    def test_registry_reopen_replays_the_journal(self, tmp_path):
        """Restart semantics at the service layer: a registry reopened on
        the same wal_root replays each graph's journal at register time."""
        from repro.service.registry import GraphRegistry

        dataset = small_dataset()
        registry = GraphRegistry(wal_root=tmp_path / "wal")
        registry.register("g", dataset.graph, dataset.keys)
        entity = sorted(dataset.graph.entity_ids())[0]
        ops = [
            {"op": "add_value", "subject": entity, "predicate": "rs", "value": f"v{i}"}
            for i in range(3)
        ]
        report, result = registry.get("g").ingest(ops, latency_budget=60.0)
        assert report.ops_applied == 3
        final_fp = fingerprint_of(dataset.graph)
        registry.close()

        # restart: a fresh registry + the graph rebuilt at its base state
        rebuilt = small_dataset()
        registry2 = GraphRegistry(wal_root=tmp_path / "wal")
        registry2.register("g", rebuilt.graph, rebuilt.keys)
        entry = registry2.get("g")
        assert entry.last_recovery is not None
        assert entry.last_recovery["ops_replayed"] == 3
        assert fingerprint_of(rebuilt.graph) == final_fp
        status = entry.ingest_status()
        assert status["last_recovery"]["final_fingerprint"] == final_fp
        assert status["wal"]["replays"] == 1
        # the recovered graph answers matches identically to the original
        assert result.pairs() == reference_fixpoint(rebuilt.graph, rebuilt.keys)
        registry2.close()

    def test_default_config_recovers_on_the_blocked_path(self, tmp_path):
        """Recovery under the default config never enumerates the quadratic
        pair set, and the ingest window that follows — default or explicit
        ``auto`` — keeps seeding from the recovered session."""
        from repro.api.config import MatchConfig
        from repro.service.registry import GraphRegistry

        dataset = small_dataset()
        registry = GraphRegistry(wal_root=tmp_path / "wal")
        registry.register("g", dataset.graph, dataset.keys)
        registry.get("g").ingest(mutation_ops(dataset.graph), latency_budget=60.0)
        registry.close()

        rebuilt = small_dataset()
        registry2 = GraphRegistry(wal_root=tmp_path / "wal")
        registry2.register("g", rebuilt.graph, rebuilt.keys)
        entry = registry2.get("g")
        assert entry.last_recovery["ops_replayed"] == len(mutation_ops(dataset.graph))
        info = entry.artifacts.cache_info()
        assert info.blocking_index_builds == 1
        flavours = set(entry.artifacts.cached("candidates"))
        assert flavours and all(blocked for _f, _r, blocked in flavours)
        shapes = ["EMOptVC(p=4, blocking=auto)"]
        assert entry.describe()["sessions"]["shapes"] == shapes
        recovered = entry.artifacts.held(MatchConfig())
        assert recovered is not None  # the replay ran under that shape
        for config in (None, MatchConfig(blocking="auto")):
            _report, result = entry.ingest([], config=config)
            assert result is recovered  # reused: the recovered shape's result
            assert entry.describe()["sessions"]["shapes"] == shapes
            assert result.pairs() == reference_fixpoint(rebuilt.graph, rebuilt.keys)
        assert entry.artifacts.cache_info().blocking_index_builds == 1
        registry2.close()


def inject_enospc(monkeypatch, nth: int) -> dict:
    """Make the *nth* write to any journal file (counted from now) tear:
    half the record reaches the file, then the write raises ``ENOSPC``."""
    import errno

    import repro.service.wal as wal_module

    writes = {"count": 0}
    real_open = open

    class TornAtNth:
        def __init__(self, handle):
            self._handle = handle

        def write(self, data):
            writes["count"] += 1
            if writes["count"] == nth:
                self._handle.write(data[: len(data) // 2])
                self._handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")
            return self._handle.write(data)

        def __getattr__(self, name):
            return getattr(self._handle, name)

    def faulty_open(path, mode="r", *args, **kwargs):
        return TornAtNth(real_open(path, mode, *args, **kwargs))

    monkeypatch.setattr(wal_module, "open", faulty_open, raising=False)
    return writes


class TestWriteFaults:
    """A journal write fault is typed and fail-stop: it surfaces as
    :class:`WalError`, the op it hit never touches the graph, the log
    refuses every later record, and reopening repairs the torn tail."""

    def test_a_torn_append_stops_the_log_and_recovery_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        dataset = small_dataset()
        ops = mutation_ops(dataset.graph)
        session = MatchSession(dataset.graph).with_keys(dataset.keys).using("EMOptVC")
        session.run()
        root = tmp_path / "wal"
        wal = WriteAheadLog(root, fsync="batch", base_fingerprint=fingerprint_of(dataset.graph))
        # writes: the header, ops 0-3, a checkpoint, ops 4-5, then op 6 tears
        inject_enospc(monkeypatch, nth=9)
        pipeline = IngestPipeline(
            session, latency_budget=60.0, max_batch_ops=4, wal=wal, deadline_flush=False
        )
        with pytest.raises(WalError, match="refuses further records"):
            pipeline.run(iter(ops))
        twin = small_dataset()
        for op in ops[:6]:
            apply_mutation(twin.graph, op)
        assert fingerprint_of(dataset.graph) == graph_fingerprint(twin.graph)
        for write in (lambda: wal.append(ops[6]), wal.mark_failed, lambda: wal.checkpoint(FP_A)):
            with pytest.raises(WalError, match="reopen"):
                write()
        wal.close()
        monkeypatch.undo()

        reopened = WriteAheadLog(root, fsync="batch")
        assert reopened.repaired_tail_bytes > 0
        assert reopened.state().ops == ops[:6] and reopened.pending_count == 2
        restarted = small_dataset()
        recovering = MatchSession(restarted.graph).with_keys(restarted.keys).using("EMOptVC")
        report = replay(reopened, recovering)
        assert report.ops_replayed == 6 and report.checkpoints_verified == 1
        assert fingerprint_of(restarted.graph) == graph_fingerprint(twin.graph)
        assert recovering.history[-1][1].pairs() == reference_fixpoint(twin.graph, twin.keys)
        # the repaired journal takes records again, after the recovery checkpoint
        reopened.append(ops[6])
        reopened.close()
        assert WriteAheadLog(root).state().ops == ops[:7]

    def test_a_torn_checkpoint_is_typed_and_the_published_result_stands(
        self, tmp_path, monkeypatch
    ):
        dataset = small_dataset()
        ops = mutation_ops(dataset.graph)[:4]
        session = MatchSession(dataset.graph).with_keys(dataset.keys).using("EMOptVC")
        session.run()
        wal = WriteAheadLog(
            tmp_path / "wal", fsync="batch", base_fingerprint=fingerprint_of(dataset.graph)
        )
        inject_enospc(monkeypatch, nth=6)  # the header, four ops, the checkpoint
        pipeline = IngestPipeline(session, latency_budget=60.0, wal=wal, deadline_flush=False)
        with pytest.raises(WalError):
            pipeline.run(iter(ops))
        assert pipeline.last_result.pairs() == reference_fixpoint(dataset.graph, dataset.keys)
        monkeypatch.undo()
        wal.close()
        reopened = WriteAheadLog(tmp_path / "wal")
        assert reopened.state().checkpoints == [] and reopened.pending_count == 4
        reopened.close()

    def test_over_http_a_write_fault_is_a_json_500_and_the_connection_survives(
        self, tmp_path, monkeypatch
    ):
        import http.client
        import threading

        from repro.service import MatchingService, make_http_server

        dataset = small_dataset()
        service = MatchingService(max_inflight=2, max_queued=8, wal_root=tmp_path / "wal")
        server = make_http_server(service, host="127.0.0.1", port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        connection = http.client.HTTPConnection(*server.server_address, timeout=60)

        def exchange(method, path, body=None):
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode("utf-8"))

        try:
            service.register_graph("g", dataset.graph, dataset.keys)
            before = fingerprint_of(dataset.graph)
            inject_enospc(monkeypatch, nth=1)
            ops = mutation_ops(dataset.graph)[:2]
            status, payload = exchange("POST", "/graphs/g/ingest", {"ops": ops})
            assert status == 500 and "failed to write a record" in payload["error"], payload
            assert fingerprint_of(dataset.graph) == before  # the op never applied
            status, payload = exchange("POST", "/graphs/g/ingest", {"ops": ops})
            assert status == 500 and "reopen" in payload["error"], payload
            status, payload = exchange("GET", "/healthz")  # same connection
            assert status == 200 and payload["ok"], payload
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            service.close()
