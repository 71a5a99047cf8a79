"""Async runs, cancellation, and concurrent artifact-sharing guarantees.

The contracts under test (the service layer's foundation):

* ``run_async`` resolves to a result bit-identical to a synchronous ``run``;
* concurrent ``run()`` / ``run_async()`` on one session serialize and each
  result matches the serial baseline;
* sibling sessions sharing one ``SessionArtifacts`` — or one snapshot store —
  build every expensive artifact exactly once (``snapshot_builds == 1``).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import ALGORITHMS, MatchSession
from repro.exceptions import ConfigError, MatchingError
from repro.matching.artifacts import SessionArtifacts
from repro.storage import SnapshotStore


def result_key(result):
    """A deterministic fingerprint of one run outcome (wall time excluded)."""
    return (
        result.algorithm,
        result.stats.identified_pairs,
        tuple(sorted(tuple(sorted(c)) for c in result.eq.nontrivial_classes())),
    )


class TestRunAsync:
    def test_future_matches_synchronous_run(self, music):
        graph, keys, expected = music
        baseline = MatchSession(graph).with_keys(keys).run("EMOptVC")
        session = MatchSession(graph).with_keys(keys)
        future = session.run_async("EMOptVC")
        result = future.result(timeout=60.0)
        assert result.pairs() == expected
        assert result_key(result) == result_key(baseline)
        assert len(session.history) == 1

    def test_future_carries_the_run_exception(self, music):
        graph, _keys, _expected = music
        session = MatchSession(graph)  # no keys: the run must fail
        future = session.run_async("EMOptVC")
        with pytest.raises(MatchingError, match="no keys"):
            future.result(timeout=60.0)

    @pytest.mark.parametrize(
        "settings",
        [
            dict(algorithm="EMOptVC", fanout=2),
            dict(algorithm="EMMR", processors=2, blocking="auto"),
            dict(algorithm="chase", incremental=True),
            dict(processors=3, executor="serial", workers=1),
            dict(algorithm="EMMR", fanout=2),  # option of another backend
            dict(algorithm="chase", executor="thread"),  # no executor support
            dict(algorithm="no-such-backend"),
            dict(workers=2),  # workers without an executor
            dict(blocking="bogus"),
            dict(processors=0),
        ],
        ids=lambda settings: ",".join(f"{k}={v}" for k, v in settings.items()),
    )
    def test_accepts_and_rejects_the_same_settings_as_run(self, music, settings):
        graph, keys, _expected = music

        def outcome(call):
            try:
                return result_key(call())
            except (ConfigError, MatchingError) as error:
                return type(error), str(error)

        sync = MatchSession(graph).with_keys(keys)
        background = MatchSession(graph).with_keys(keys)
        assert outcome(
            lambda: background.run_async(**settings).result(timeout=60.0)
        ) == outcome(lambda: sync.run(**settings))
        assert [c for c, _ in background.history] == [c for c, _ in sync.history]

    def test_events_stream_a_background_run(self, music):
        graph, keys, expected = music
        session = MatchSession(graph).with_keys(keys)
        stream = session.events()
        future = session.run_async("EMMR")
        future.add_done_callback(lambda _: stream.close())
        stages = [event.stage for event in stream]
        assert future.result(timeout=60.0).pairs() == expected
        assert stages and stages[-1] == "done"

    def test_cancel_while_queued_behind_the_run_lock(self, music):
        graph, keys, expected = music
        session = MatchSession(graph).with_keys(keys)
        with session._lock:  # simulate a long-running foreground run
            future = session.run_async("EMOptVC")
            assert future.cancel()  # still waiting on the lock: cancellable
        assert future.cancelled()
        assert session.history == ()  # the run body never executed

    def test_cannot_cancel_a_started_run(self, music):
        graph, keys, expected = music
        session = MatchSession(graph).with_keys(keys)
        started = threading.Event()

        original = SessionArtifacts.snapshot

        def slow_snapshot(self):
            started.set()
            return original(self)

        SessionArtifacts.snapshot = slow_snapshot
        try:
            future = session.run_async("EMOptVC")
            assert started.wait(timeout=30.0)
            assert not future.cancel()  # already running
        finally:
            SessionArtifacts.snapshot = original
        assert future.result(timeout=60.0).pairs() == expected


class TestConcurrentOneSession:
    def test_fuzz_mixed_run_and_run_async(self, music):
        graph, keys, expected = music
        algorithms = sorted(ALGORITHMS)
        serial = {}
        for name in algorithms:
            serial[name] = result_key(MatchSession(graph).with_keys(keys).run(name))

        session = MatchSession(graph).with_keys(keys)
        jobs = [algorithms[i % len(algorithms)] for i in range(12)]
        outcomes = []
        failures = []

        def sync_job(name):
            try:
                outcomes.append((name, result_key(session.run(name))))
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        with ThreadPoolExecutor(max_workers=6) as pool:
            for i, name in enumerate(jobs):
                if i % 2:
                    pool.submit(sync_job, name)
                else:
                    future = session.run_async(name)
                    future.add_done_callback(
                        lambda f, n=name: outcomes.append((n, result_key(f.result())))
                    )
            pool.shutdown(wait=True)
        # run_async futures resolve on their own daemon threads; wait via history
        deadline = threading.Event()
        for _ in range(600):
            if len(outcomes) == len(jobs):
                break
            deadline.wait(0.05)
        assert not failures
        assert len(outcomes) == len(jobs)
        for name, key in outcomes:
            assert key == serial[name], name
        info = session.cache_info()
        assert info.snapshot_builds == 1

    def test_concurrent_runs_build_each_flavor_once(self, music):
        graph, keys, _expected = music
        session = MatchSession(graph).with_keys(keys)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: session.run("EMOptVC"), range(8)))
        info = session.cache_info()
        assert info.snapshot_builds == 1
        assert info.neighborhood_index_builds == 1
        assert info.product_graph_builds == 1


class TestSharedArtifacts:
    def test_sibling_sessions_share_one_artifacts_cache(self, music):
        graph, keys, expected = music
        artifacts = SessionArtifacts(graph, keys)
        sessions = [
            MatchSession(graph, keys, artifacts=artifacts) for _ in range(6)
        ]
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(lambda s: s.run("EMOptVC"), sessions))
        assert all(result.pairs() == expected for result in results)
        info = artifacts.cache_info()
        assert info.snapshot_builds == 1
        assert info.neighborhood_index_builds == 1
        assert info.product_graph_builds == 1

    def test_shared_artifacts_reject_a_different_graph(self, music, business):
        graph, keys, _expected = music
        other_graph, _other_keys, _pairs = business
        artifacts = SessionArtifacts(graph, keys)
        with pytest.raises(MatchingError, match="different graph"):
            MatchSession(other_graph, keys, artifacts=artifacts)

    def test_sessions_sharing_a_store_build_the_snapshot_once(self, music, tmp_path):
        graph, keys, expected = music
        store = SnapshotStore(tmp_path / "store")
        sessions = [
            MatchSession(graph, keys, snapshot_store=store) for _ in range(6)
        ]
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(lambda s: s.run("chase"), sessions))
        assert all(result.pairs() == expected for result in results)
        assert store.builds == 1  # one racer built; every sibling loaded
        assert store.hits == len(sessions) - 1
        total_builds = sum(s.cache_info().snapshot_builds for s in sessions)
        assert total_builds == 1
