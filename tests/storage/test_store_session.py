"""Store ↔ session integration: cache counters, fallback, round-trip identity.

The acceptance bar of the persistence layer: a snapshot loaded from the
store must produce *bit-identical* ``EMResult``\\ s to a freshly built one
for every registered backend under the serial, thread and process
executors, and any unreadable/stale store entry must fall back to a clean
in-memory rebuild without failing the run.
"""

from __future__ import annotations

import shutil

import pytest

from repro.api.registry import ALGORITHMS, get_algorithm
from repro.api.session import MatchSession
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.exceptions import ConfigError
from repro.storage import FORMAT_VERSION, GraphSnapshot, SnapshotStore, graph_fingerprint

from tests.graphs import unpublished


@pytest.fixture(scope="module")
def dataset():
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=5, scale=1.0, seed=7
    )


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory, dataset):
    """A store already holding the dataset graph's snapshot (a warm restart)."""
    store = SnapshotStore(tmp_path_factory.mktemp("snaps"))
    store.save(GraphSnapshot.build(dataset.graph), graph=dataset.graph)
    return store


def result_key(result):
    """Everything an EMResult pins down besides the measured wall clock."""
    return (
        sorted(result.pairs()),
        result.stats.as_dict(),
        round(result.simulated_seconds, 9),
    )


class TestRoundTripIdentity:
    def test_all_backends_and_executors_match_the_built_snapshot(self, dataset, warm_store):
        """Store-loaded vs built: identical results, six backends, 3 executors."""
        built = MatchSession(dataset.graph).with_keys(dataset.keys)
        loaded = MatchSession(
            unpublished(dataset.graph), snapshot_store=warm_store
        ).with_keys(dataset.keys)
        for name in ALGORITHMS:
            executors = (
                (None, "serial", "thread", "process")
                if "executors" in get_algorithm(name).capabilities
                else (None,)
            )
            for kind in executors:
                workers = None if kind is None else 2
                expected = built.run(name, processors=4, executor=kind, workers=workers)
                actual = loaded.run(name, processors=4, executor=kind, workers=workers)
                assert result_key(actual) == result_key(expected), (name, kind)
        info = loaded.cache_info()
        assert info.store_hits == 1
        assert info.store_misses == 0
        assert info.snapshot_builds == 0  # the whole point: zero-rebuild cold start

    def test_store_write_back_then_warm_restart(self, dataset, tmp_path):
        cold = MatchSession(unpublished(dataset.graph), snapshot_store=tmp_path).with_keys(
            dataset.keys
        )
        cold_result = cold.run("EMOptVC")
        assert cold.cache_info().store_misses == 1
        assert cold.cache_info().snapshot_builds == 1
        warm = MatchSession(unpublished(dataset.graph), snapshot_store=tmp_path).with_keys(
            dataset.keys
        )
        warm_result = warm.run("EMOptVC")
        assert warm.cache_info().store_hits == 1
        assert warm.cache_info().snapshot_builds == 0
        assert result_key(warm_result) == result_key(cold_result)


class TestSessionFallback:
    @pytest.mark.parametrize(
        "corruption", ["truncate", "magic", "format_version", "old_format_version"]
    )
    def test_corrupt_store_entries_fall_back_to_a_clean_rebuild(
        self, dataset, tmp_path, corruption
    ):
        store = SnapshotStore(tmp_path)
        path = store.save(GraphSnapshot.build(dataset.graph), graph=dataset.graph)
        raw = bytearray(path.read_bytes())
        if corruption == "truncate":
            raw = raw[: len(raw) // 3]
        elif corruption == "magic":
            raw[:8] = b"NOTASNAP"
        elif corruption == "old_format_version":
            raw[8] = 1  # a leftover file from the pre-vindex format
        else:
            raw[8] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))

        reference = MatchSession(dataset.graph).with_keys(dataset.keys).run("EMOptMR")
        session = MatchSession(unpublished(dataset.graph), snapshot_store=store).with_keys(
            dataset.keys
        )
        result = session.run("EMOptMR")
        assert result_key(result) == result_key(reference)
        info = session.cache_info()
        assert info.store_misses == 1
        assert info.store_hits == 0
        assert info.snapshot_builds == 1
        # the rebuild was written back over the corrupt entry: next session hits
        again = MatchSession(unpublished(dataset.graph), snapshot_store=store).with_keys(
            dataset.keys
        )
        again.run("EMOptMR")
        assert again.cache_info().store_hits == 1

    def test_mutation_between_runs_stores_the_new_version_too(self, tmp_path):
        graph, keys = music_dataset()
        store = SnapshotStore(tmp_path)
        session = MatchSession(graph, snapshot_store=store).with_keys(keys)
        session.run("EMOptVC")
        assert len(store) == 1
        graph.add_value("alb1", "bonus_of", "extra")
        session.run("EMOptVC")
        # the patch is owed to the store until the writer settles it
        assert len(store) == 1
        session.write_owed_snapshot()
        assert len(store) == 2
        assert store.contains(graph_fingerprint(graph))
        info = session.cache_info()
        # the first version was cold (a store miss); the second landed on
        # disk through the snapshot-patch write-through, never via a miss
        assert info.store_misses == 1
        assert info.snapshot_patches == 1
        assert store.metrics()["patches"] == 1

    def test_a_patch_a_whole_graph_read_published_still_reaches_the_store(self, tmp_path):
        """``stats()`` publishes the window outside any session, by a patch;
        the session then reads that patch with no patch of its own, and owes
        it to the store all the same."""
        graph, keys = music_dataset()
        store = SnapshotStore(tmp_path)
        session = MatchSession(graph, snapshot_store=store).with_keys(keys)
        session.run("EMOptVC")
        graph.add_value("alb1", "bonus_of", "extra")
        graph.stats()
        published = graph.held_snapshot
        assert published.lineage is not published and published.store_path is None
        session.run("EMOptVC")
        session.write_owed_snapshot()
        assert published.store_path == str(store.path_for(graph_fingerprint(graph)))
        assert store.metrics()["patches"] == 1
        info = session.cache_info()
        assert (info.snapshot_patches, info.store_write_failures) == (0, 0)

    def test_a_held_snapshot_outlives_the_store_that_saved_it(self, dataset, tmp_path):
        """A store-backed session saves the snapshot the graph then holds;
        once that store is gone, a process-pool run over a copy of the graph
        (which shares the held snapshot) ships its arrays, not the path."""
        graph, keys = unpublished(dataset.graph), dataset.keys
        store = tmp_path / "store"
        expected = MatchSession(graph, snapshot_store=store).with_keys(keys).run("EMOptMR")
        assert graph.held_snapshot.store_path is not None
        shutil.rmtree(store)
        result = MatchSession(graph.copy()).with_keys(keys).run(
            "EMOptMR", executor="process", workers=2
        )
        assert result.pairs() == expected.pairs()

    def test_unwritable_store_never_fails_a_run(self, dataset, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the store directory should be")
        session = MatchSession(unpublished(dataset.graph), snapshot_store=blocker).with_keys(
            dataset.keys
        )
        result = session.run("EMOptVC")
        assert result.pairs()
        assert session.cache_info().snapshot_builds == 1


class TestConfigPlumbing:
    def test_using_and_config_carry_the_store(self, dataset, tmp_path):
        session = MatchSession(unpublished(dataset.graph)).with_keys(dataset.keys)
        session.using("EMOptVC", snapshot_store=tmp_path)
        assert str(session.config.snapshot_store) == str(tmp_path)
        assert f"store=" in session.config.describe()
        session.run()
        assert session.cache_info().store_misses == 1
        # an explicit run(name) inherits the session store
        session.run("EMMR")
        assert (tmp_path / f"{graph_fingerprint(dataset.graph)}.snap").is_file()

    def test_snapshot_store_rejects_bad_types(self):
        from repro.api.config import MatchConfig

        with pytest.raises(ConfigError):
            MatchConfig(snapshot_store=42)

    def test_config_hash_and_describe_with_store(self, tmp_path):
        from repro.api.config import MatchConfig

        config = MatchConfig(snapshot_store=str(tmp_path))
        assert isinstance(hash(config), int)
        assert str(tmp_path) in config.describe()
