"""Tests of the on-disk snapshot store: format, corruption, cache, payloads."""

from __future__ import annotations

import pickle

import pytest

from repro.core.graph import Graph
from repro.core.triples import Literal, Triple
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.exceptions import (
    StoreError,
    StoreFormatError,
    StoreMissError,
    StoreStaleError,
    StoreVersionError,
)
from repro.runtime import AttachByPath, ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.storage import (
    FORMAT_VERSION,
    GraphSnapshot,
    SnapshotStore,
    graph_fingerprint,
    read_snapshot,
    snapshot_info,
    verify_snapshot,
    write_snapshot,
)


@pytest.fixture
def dataset():
    return music_dataset()


@pytest.fixture
def graph(dataset):
    return dataset[0]


@pytest.fixture
def store(tmp_path):
    return SnapshotStore(tmp_path / "snaps")


@pytest.fixture
def stored(graph, store):
    """``(snapshot, path)``: a built snapshot saved into the store."""
    snapshot = GraphSnapshot.build(graph)
    path = store.save(snapshot, graph=graph)
    return snapshot, path


def exotic_graph() -> Graph:
    """A graph exercising every literal encoding (str/int/float/bool/None/pickle)."""
    g = Graph()
    g.add_entity("e1", "thing")
    g.add_entity("e2", "thing")
    g.add_edge("e1", "linked_to", "e2")
    g.add_value("e1", "name", "ünïcode – name")
    g.add_value("e1", "count", 42)
    g.add_value("e1", "ratio", 2.5)
    g.add_value("e1", "negative", -1.5e300)
    g.add_value("e1", "flag", True)
    g.add_value("e2", "flag", False)
    g.add_value("e2", "missing", None)
    g.add_value("e2", "pair", (1, ("two", False)))  # nested tuple
    g.add_value("e2", "tags", frozenset({"alpha", "beta", "gamma"}))  # unordered
    return g


def assert_same_surface(left: GraphSnapshot, right: GraphSnapshot) -> None:
    """The full read surface of both snapshots must agree."""
    assert left.version == right.version
    assert left._node_of == right._node_of
    assert left._type_ranges == right._type_ranges
    assert left._pred_of == right._pred_of
    assert set(left.triples()) == set(right.triples())
    assert left.value_nodes() == right.value_nodes()
    for entity in left.entity_ids():
        assert left.entity_type(entity) == right.entity_type(entity)
        assert left.neighbors(entity) == right.neighbors(entity)
        assert left.out_triples(entity) == right.out_triples(entity)
        root = left.id_of(entity)
        assert left.neighborhood_ids(root, 2) == right.neighborhood_ids(root, 2)


class TestFormatRoundTrip:
    def test_round_trip_preserves_the_read_surface(self, graph, stored, store):
        snapshot, _path = stored
        loaded = store.load(graph)
        assert_same_surface(snapshot, loaded)

    def test_round_trip_of_every_literal_kind(self, tmp_path):
        g = exotic_graph()
        snapshot = GraphSnapshot.build(g)
        path = write_snapshot(
            snapshot, tmp_path / "exotic.snap", fingerprint=graph_fingerprint(g)
        )
        loaded = read_snapshot(path)
        assert_same_surface(snapshot, loaded)
        assert Literal((1, ("two", False))) in loaded.value_nodes()
        assert loaded.has_triple("e2", "tags", Literal(frozenset({"alpha", "beta", "gamma"})))
        assert loaded.has_triple("e1", "negative", Literal(-1.5e300))

    def test_serialization_is_deterministic(self, graph, tmp_path):
        snapshot = GraphSnapshot.build(graph)
        fingerprint = graph_fingerprint(graph)
        a = write_snapshot(snapshot, tmp_path / "a.snap", fingerprint=fingerprint)
        b = write_snapshot(snapshot, tmp_path / "b.snap", fingerprint=fingerprint)
        assert a.read_bytes() == b.read_bytes()

    def test_mmap_load_exposes_views_not_copies(self, graph, stored, store):
        loaded = store.load(graph)
        assert isinstance(loaded._fwd_offsets, memoryview)
        assert isinstance(loaded._und_targets, memoryview)

    def test_snapshot_info_reads_only_the_header(self, graph, stored):
        _snapshot, path = stored
        info = snapshot_info(path)
        assert info["format_version"] == FORMAT_VERSION
        assert info["fingerprint"] == graph_fingerprint(graph)
        assert info["graph_version"] == graph.version
        assert info["num_entities"] == graph.num_entities
        assert info["num_triples"] == graph.num_triples

    def test_verify_accepts_a_good_file(self, graph, stored):
        _snapshot, path = stored
        info = verify_snapshot(path, graph)
        assert info["fingerprint"] == graph_fingerprint(graph)


class TestFingerprint:
    def test_insertion_order_does_not_matter(self):
        g1 = Graph()
        g1.add_entity("a", "t")
        g1.add_entity("b", "t")
        g1.add_edge("a", "p", "b")
        g1.add_value("a", "v", 1)
        g2 = Graph()
        g2.add_entity("b", "t")
        g2.add_entity("a", "t")
        g2.add_value("a", "v", 1)
        g2.add_edge("a", "p", "b")
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_graph_and_snapshot_fingerprints_agree(self, graph):
        assert graph_fingerprint(graph) == graph_fingerprint(GraphSnapshot.build(graph))

    def test_content_changes_change_the_fingerprint(self, graph):
        before = graph_fingerprint(graph)
        graph.add_value("alb1", "bonus_of", "extra")
        assert graph_fingerprint(graph) != before

    def test_fingerprint_is_stable_across_hash_seeds(self):
        """Hash randomization must not leak into the fingerprint.

        Frozenset literals iterate in hash order, which varies per process;
        the canonical fingerprint encoding sorts unordered containers, so
        two processes with different PYTHONHASHSEEDs must agree.
        """
        import os
        import subprocess
        import sys

        script = (
            "from tests.storage.test_store import exotic_graph\n"
            "from repro.storage import graph_fingerprint\n"
            "print(graph_fingerprint(exotic_graph()))\n"
        )
        prints = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            prints.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True, text=True, check=True, env=env,
                    cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                ).stdout.strip()
            )
        assert prints[0] == prints[1]
        assert prints[0] == graph_fingerprint(exotic_graph())


class TestAttachByPathPickling:
    def test_store_backed_snapshots_pickle_as_path_stubs(self, graph, stored, store):
        snapshot, _path = stored
        # both the saved original and a store load are path-backed
        assert snapshot.store_path is not None
        loaded = store.load(graph)
        blob = pickle.dumps(loaded)
        assert len(blob) < 1024
        assert_same_surface(loaded, pickle.loads(blob))

    def test_saving_marks_the_built_snapshot(self, graph, stored):
        snapshot, path = stored
        assert snapshot.store_path == str(path)
        assert snapshot.store_fingerprint == graph_fingerprint(graph)
        assert len(pickle.dumps(snapshot)) < 1024

    def test_unstored_snapshots_still_pickle_as_arrays(self, graph):
        snapshot = GraphSnapshot.build(graph)
        assert snapshot.store_path is None
        restored = pickle.loads(pickle.dumps(snapshot))
        assert set(restored.triples()) == set(snapshot.triples())
        assert restored.store_path is None

    def test_detached_load_pickles_as_arrays_and_survives_deletion(self, graph, stored):
        _snapshot, path = stored
        detached = read_snapshot(path, attach=False)
        blob = pickle.dumps(detached)  # materializes the mmap views
        path.unlink()
        restored = pickle.loads(blob)
        assert set(restored.triples()) == set(_snapshot.triples())

    def test_attached_pickle_fails_loudly_when_the_file_vanishes(self, graph, stored, store):
        loaded = store.load(graph)
        blob = pickle.dumps(loaded)
        store.path_for(graph_fingerprint(graph)).unlink()
        with pytest.raises(StoreError):
            pickle.loads(blob)


class TestCorruption:
    def test_missing_file_is_a_typed_miss(self, graph, store):
        with pytest.raises(StoreMissError):
            store.load(graph)

    def test_truncated_preamble(self, graph, stored):
        _snapshot, path = stored
        path.write_bytes(path.read_bytes()[:7])
        with pytest.raises(StoreFormatError):
            read_snapshot(path)

    def test_truncated_segment_area(self, graph, stored):
        _snapshot, path = stored
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreFormatError):
            read_snapshot(path)

    def test_bad_magic(self, graph, stored):
        _snapshot, path = stored
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTASNAP"
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError):
            read_snapshot(path)

    def test_format_version_mismatch(self, graph, stored):
        _snapshot, path = stored
        raw = bytearray(path.read_bytes())
        raw[8] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreVersionError):
            read_snapshot(path)

    def test_pre_vindex_v1_file_raises_version_error(self, graph, stored):
        """A file written by the format-1 layout (no vindex segments) is
        rejected with a clean :class:`StoreVersionError`, not a decode crash."""
        _snapshot, path = stored
        raw = bytearray(path.read_bytes())
        raw[8] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreVersionError) as excinfo:
            read_snapshot(path)
        message = str(excinfo.value)
        assert "1" in message and str(FORMAT_VERSION) in message

    def test_store_get_or_build_recovers_from_a_v1_file(self, graph, store, stored):
        snapshot, path = stored
        raw = bytearray(path.read_bytes())
        raw[8] = 1
        path.write_bytes(bytes(raw))
        rebuilt, loaded = store.get_or_build(graph, lambda: GraphSnapshot.build(graph))
        assert not loaded  # the stale v1 entry forced a clean rebuild
        assert rebuilt.num_triples == snapshot.num_triples
        # the rebuild was written back at the current version: next load hits
        again = store.load(graph)
        assert again.value_postings(0) is not None

    def test_fingerprint_mismatch_is_stale(self, graph, stored):
        _snapshot, path = stored
        with pytest.raises(StoreStaleError):
            read_snapshot(path, expect_fingerprint="0" * 64)

    def test_stale_graph_version(self, graph, stored):
        _snapshot, path = stored
        with pytest.raises(StoreStaleError):
            read_snapshot(path, expect_graph_version=graph.version + 1)

    def test_poisoned_store_entry_is_stale(self, graph, stored, store):
        # a file stored under one fingerprint but holding another graph
        _snapshot, path = stored
        graph.add_value("alb1", "bonus_of", "extra")
        poisoned = store.path_for(graph_fingerprint(graph))
        poisoned.write_bytes(path.read_bytes())
        with pytest.raises(StoreStaleError):
            store.load(graph)

    def test_verify_catches_payload_corruption(self, graph, stored):
        _snapshot, path = stored
        info = snapshot_info(path)
        offset, length = info["segments"]["fwd_objs"]
        assert length > 0
        raw = bytearray(path.read_bytes())
        raw[info["data_start"] + offset] ^= 0xFF  # flip a bit inside a segment
        path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError):
            verify_snapshot(path, graph)

    def test_missing_header_field_is_a_typed_format_error(self, graph, stored):
        """A parseable JSON header lacking required fields must not KeyError."""
        import json
        import struct

        _snapshot, path = stored
        raw = path.read_bytes()
        magic, version, reserved, header_len = struct.unpack_from("<8sHHI", raw)
        header = json.loads(raw[16 : 16 + header_len])
        del header["num_predicates"]
        patched = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        # same-length padding keeps the offsets valid; spaces are legal JSON
        patched += b" " * (header_len - len(patched))
        path.write_bytes(raw[:12] + struct.pack("<I", len(patched)) + patched + raw[16 + header_len :])
        with pytest.raises(StoreFormatError):
            read_snapshot(path)
        with pytest.raises(StoreFormatError):
            snapshot_info(path)

    def test_all_store_errors_share_the_typed_base(self):
        for cls in (StoreFormatError, StoreVersionError, StoreStaleError, StoreMissError):
            assert issubclass(cls, StoreError)


class TestSnapshotStore:
    def test_save_then_load_by_fingerprint(self, graph, stored, store):
        _snapshot, path = stored
        fingerprint = graph_fingerprint(graph)
        assert store.contains(fingerprint)
        assert fingerprint in store
        assert store.fingerprints() == [fingerprint]
        assert len(store) == 1
        loaded = store.load_fingerprint(fingerprint)
        assert set(loaded.triples()) == set(_snapshot.triples())

    def test_one_store_caches_many_graph_versions(self, graph, store):
        store.save(GraphSnapshot.build(graph), graph=graph)
        graph.add_value("alb1", "bonus_of", "extra")
        store.save(GraphSnapshot.build(graph), graph=graph)
        assert len(store) == 2
        assert store.load(graph).has_triple("alb1", "bonus_of", Literal("extra"))


class TestDeltaFiles:
    """``SnapshotStore.patch``: one delta file per window, each over exactly
    one canonical ancestor, none ever in a canonical file's place."""

    def windows(self, graph, snapshot, store):
        """Three windows patched onto one another, each written through."""
        patched = []
        for mutate in (
            lambda: graph.add_value("alb1", "bonus_of", "extra"),
            lambda: graph.add_entity("alb9", "album"),
            lambda: graph.remove_value("alb1", "bonus_of", "extra"),
        ):
            base, version = snapshot, snapshot.version
            mutate()
            snapshot = snapshot.patched(graph, graph.touched_since(version))
            path = store.patch(snapshot, base=base, fingerprint=graph.content_fingerprint())
            patched.append((snapshot, path))
        return patched

    def test_every_delta_names_the_canonical_ancestor_never_another_delta(
        self, graph, stored, store
    ):
        ancestor, ancestor_path = stored
        for snapshot, path in self.windows(graph, ancestor, store):
            info = snapshot_info(path)
            assert info["kind"] == "delta" and info["ancestor"] == ancestor.store_fingerprint
            assert snapshot.store_path == str(path)
            assert verify_snapshot(path)["fingerprint"] == info["fingerprint"]
        assert snapshot_info(ancestor_path)["kind"] == "canonical"
        assert store.metrics()["patches"] == 3 and store.metrics()["saves"] == 1
        assert store.load(graph).has_entity("alb9")

    def test_content_already_stored_is_not_written_again(self, graph, store):
        ancestor = GraphSnapshot.build(graph)
        *_, (third, third_path) = self.windows(graph, ancestor, store)
        assert len(store) == 4  # the ancestor was saved on demand, then three deltas
        graph.retype_entity("alb9", "artist")  # a fourth window that cancels out
        graph.retype_entity("alb9", "album")
        back = third.patched(graph, graph.touched_since(third.version))
        before = third_path.read_bytes()
        assert store.patch(back, base=third, prune_base=True) == third_path
        assert third_path.read_bytes() == before and len(store) == 4
        assert store.metrics()["patches"] == 3

    def test_a_cancelled_out_history_lands_on_the_canonical_file_even_in_an_empty_store(
        self, graph, store
    ):
        ancestor = GraphSnapshot.build(graph)
        graph.add_value("alb1", "bonus_of", "extra")
        graph.remove_value("alb1", "bonus_of", "extra")
        patched = ancestor.patched(graph, graph.touched_since(ancestor.version))
        assert patched.overlay_rows > 0
        path = store.patch(patched, base=None, fingerprint=graph.content_fingerprint())
        # a delta here would name itself as its ancestor
        assert snapshot_info(path)["kind"] == "canonical" and len(store) == 1
        assert set(store.load(graph).triples()) == set(graph.triples())

    def test_prune_base_unlinks_a_superseded_delta_and_never_a_canonical_file(
        self, graph, stored, store
    ):
        ancestor, ancestor_path = stored
        graph.add_value("alb1", "bonus_of", "extra")
        first = ancestor.patched(graph, graph.touched_since(ancestor.version))
        first_path = store.patch(first, base=ancestor, prune_base=True)
        assert ancestor_path.is_file()  # the base was canonical: kept
        graph.add_value("alb1", "bonus_of", "more")
        second = first.patched(graph, graph.touched_since(first.version))
        second_path = store.patch(second, base=first, prune_base=True)
        assert not first_path.is_file() and second_path.is_file() and ancestor_path.is_file()
        assert store.load(graph).has_triple("alb1", "bonus_of", Literal("more"))

    def test_verify_checks_the_ancestor_of_a_delta_too(self, graph, stored, store):
        ancestor, ancestor_path = stored
        (_, path), *_ = self.windows(graph, ancestor, store)
        info = snapshot_info(ancestor_path)
        raw = bytearray(ancestor_path.read_bytes())
        raw[info["data_start"] + info["segments"]["und_targets"][0]] ^= 0x01  # the *ancestor*
        ancestor_path.write_bytes(bytes(raw))
        with pytest.raises(StoreFormatError, match="checksum"):
            verify_snapshot(path)

    def test_a_delta_over_a_delta_is_a_format_error(self, graph, stored, store):
        ancestor, ancestor_path = stored
        (_, first), (_, second), _ = self.windows(graph, ancestor, store)
        ancestor_path.write_bytes(first.read_bytes())  # a delta where the ancestor was
        with pytest.raises(StoreError):
            read_snapshot(second)


class TestWorkerCacheShipCost:
    def test_store_backed_snapshot_shrinks_the_mr_worker_payload(self, store):
        """The MR Haloop cache ships a path stub, not arrays, under a store.

        On a 180-entity graph: the music graph's arrays, shipped as 4-byte
        items, pickle in 1.4 KB, too close to the stub to show the gap."""
        from repro.mapreduce.haloop_cache import WorkerCache

        graph = synthetic_dataset(
            num_keys=10, chain_length=2, radius=2, entities_per_type=8, seed=7
        ).graph
        store.save(GraphSnapshot.build(graph), graph=graph)
        built_cache, stored_cache = WorkerCache(2), WorkerCache(2)
        built_cache.put("snapshot", GraphSnapshot.build(graph), records=0)
        stored_cache.put("snapshot", store.load(graph), records=0)
        assert stored_cache.shipped_bytes() < 1024
        assert stored_cache.shipped_bytes() < built_cache.shipped_bytes() / 5


def count_triples(shared, lo, hi):
    """Executor task: count triples whose subject id falls in [lo, hi)."""
    total = 0
    for sid in range(lo, min(hi, shared.num_entities)):
        total += len(shared.out_triples(shared.node_at(sid)))
    return total


class TestExecutorPayloads:
    def test_process_executor_reuses_pickled_payload_across_pools(self):
        payload = {"big": list(range(1000))}
        with ProcessExecutor(2) as executor:
            first = executor.run_tasks(lambda_free_len, [(1,), (2,)], shared=payload)
            executor.close()  # forces a pool re-create on the next call
            second = executor.run_tasks(lambda_free_len, [(3,),], shared=payload)
            assert executor.payload_pickles == 1
            assert executor.payload_reuses >= 1
        assert first == [1001, 1002]
        assert second == [1003]

    def test_changed_payload_is_repickled(self):
        with ProcessExecutor(2) as executor:
            executor.run_tasks(lambda_free_len, [(1,)], shared={"big": [1]})
            executor.run_tasks(lambda_free_len, [(1,)], shared={"big": [1, 2]})
            assert executor.payload_pickles == 2

    @pytest.mark.parametrize("factory", [SerialExecutor, ThreadExecutor, ProcessExecutor])
    def test_attach_by_path_shared_payload(self, factory, graph, stored):
        _snapshot, path = stored
        batches = [(0, 5), (5, 10), (0, graph.num_entities)]
        expected = SerialExecutor().run_tasks(count_triples, batches, shared=_snapshot)
        with factory(2) as executor:
            results = executor.run_tasks(
                count_triples, batches, shared=AttachByPath(path)
            )
        assert results == expected
        assert expected[-1] == graph.num_triples


def lambda_free_len(shared, extra):
    """Executor task: size of the shared payload's list plus *extra*."""
    return len(shared["big"]) + extra
