"""Complexity guards for the cold read path: counts, never clocks.

A snapshot decodes a CSR row into Python containers the first time that row
is read, and never the whole graph.  A blocked cold match reads only around
its candidates, so what it decodes is bounded by their d-neighbourhoods —
not by ``|G|`` — and a snapshot nobody has read yet has decoded nothing,
however it was produced.  Below a public entry point handed a bare
``Graph``, the snapshot is the only thing read: one is compiled, first, and
the ``Graph`` is not read again.
"""

from __future__ import annotations

import contextlib
import pickle

import pytest

from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.core.graph import Graph
from repro.datasets.synthetic import synthetic_dataset
from repro.matching.artifacts import SessionArtifacts
from repro.matching.blocking import BlockingIndex
from repro.matching.candidates import build_filtered_candidates
from repro.storage import GraphSnapshot, SnapshotStore

from tests.naive_semantics import naive_chase

#: the CSRs a read can decode a row of: forward, backward, undirected
CSRS = 3


def _scale_4(scale=4):
    """The spine's ``hot`` dataset (scale 4 there); *scale* grows the graph."""
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8, scale=scale, seed=1
    )


def test_cold_blocked_match_decodes_only_around_its_candidates():
    dataset = _scale_4()
    artifacts = SessionArtifacts(dataset.graph, dataset.keys)
    session = MatchSession(dataset.graph, artifacts=artifacts).using("EMOptMR", blocking="auto")
    assert session.run().pairs() == dataset.planted_pairs

    snapshot = artifacts.snapshot()
    neighborhoods = artifacts.neighborhood_index()  # the unreduced d-neighbourhoods
    candidates = neighborhoods.cached_entities()
    assert candidates  # the blocked pairs' entities, before the pairing filter
    union = set().union(*(neighborhoods.nodes(entity) for entity in candidates))

    decoded = snapshot.stats()["decoded_rows"]
    assert 0 < decoded <= CSRS * len(union)
    # the union is a fraction of the graph here; decoding all of it (two
    # object-space rows per node) is what the first read used to cost
    assert len(union) < snapshot.num_nodes / 2
    assert decoded < snapshot.num_nodes


def test_unread_snapshots_have_decoded_nothing(tmp_path):
    dataset = _scale_4()
    graph = dataset.graph
    built = GraphSnapshot.build(graph)
    assert built.stats()["decoded_rows"] == 0

    for entity in graph.entities_of_type(min(dataset.keys.target_types())):
        built.neighborhood_nodes(entity, 2)
        built.objects(entity, "name_of")
    assert built.stats()["decoded_rows"] > 0

    victim = sorted(graph.entity_ids())[0]
    graph.add_value(victim, "name_of", "renamed")
    patched = built.patched(graph, graph.touched_since(built.version))
    assert patched.stats()["decoded_rows"] == 0

    store = SnapshotStore(tmp_path)
    store.save(patched, graph=graph)
    assert store.load(graph).stats()["decoded_rows"] == 0
    assert pickle.loads(pickle.dumps(built)).stats()["decoded_rows"] == 0


# --------------------------------------------------------------------------- #
# the write path: a window costs what it touched, at any graph size
# --------------------------------------------------------------------------- #


def _hot_window(graph, entities):
    """One ``serve_mixed`` ingest window (5 ``add_value``, a ``set_value``,
    an ``add_entity`` with its edge) on *entities*, which both scales hold."""
    for index, subject in enumerate(entities[:5]):
        graph.add_value(subject, f"stream_tag_{index % 3}", f"s{index}")
    edited = entities[5]
    predicate, old = min(
        (t.predicate, t.obj) for t in graph.out_triples(edited) if t.object_is_value()
    )
    graph.set_value(edited, predicate, "edited")
    graph.add_entity("stream_1", graph.entity_type(entities[6]))
    graph.add_edge("stream_1", "stream_ref", entities[7])
    return old


def test_a_window_costs_its_rows_at_any_graph_size(tmp_path, monkeypatch):
    small, large = _scale_4().graph, _scale_4(32).graph
    assert large.num_nodes > 6 * small.num_nodes
    # eight entities both graphs hold, with the same rows in both
    shared = [
        eid for eid in sorted(small.entity_ids())
        if large.has_entity(eid) and small.out_triples(eid) == large.out_triples(eid)
        and small.in_triples(eid) == large.in_triples(eid)
    ]
    entities = shared[:: len(shared) // 8][:8]
    sizes = []
    for name, graph in (("small", small), ("large", large)):
        parent = GraphSnapshot.build(graph)
        store = SnapshotStore(tmp_path / name)
        store.save(parent, graph=graph)
        old_value = _hot_window(graph, entities)
        touched = graph.touched_since(parent.version)
        survivors = {
            node for node in touched
            if (graph.has_entity(node) if isinstance(node, str) else graph.degree(node))
        }
        tombstones = touched - survivors
        assert tombstones <= {old_value}

        calls = {"out_triples": [], "in_triples": [], "neighbors": []}
        for method, seen in calls.items():
            original = getattr(type(graph), method)

            def counted(self, node, original=original, seen=seen):
                if self is graph:
                    seen.append(node)
                return original(self, node)

            monkeypatch.setattr(type(graph), method, counted)
        patched = parent.patched(graph, touched)
        monkeypatch.undo()

        # the live graph is read once per touched surviving node, and no other
        assert sorted(calls["in_triples"], key=repr) == sorted(survivors, key=repr)
        assert sorted(calls["neighbors"], key=repr) == sorted(survivors, key=repr)
        assert sorted(calls["out_triples"]) == sorted(n for n in survivors if isinstance(n, str))
        assert patched.overlay_rows == len(survivors) + len(tombstones)
        # nothing of the parent was copied, and no id moved
        for slot in ("_node_of", "_id_of", "_etype_of", "_fwd_offsets", "_fwd_objs",
                     "_bwd_subjs", "_und_targets", "_vindex_subjects"):
            assert getattr(patched, slot) is getattr(parent, slot), slot
        assert all(patched.id_of(n) == parent.id_of(n) for n in entities)
        assert patched.stats()["decoded_rows"] == 0

        path = store.patch(patched, base=parent, fingerprint=graph.content_fingerprint())
        assert store.metrics()["patches"] == 1
        assert store.load(graph).neighbors("stream_1") == graph.neighbors("stream_1")
        sizes.append(path.stat().st_size)
    # a delta's size is a function of the overlay, never of the graph
    assert max(sizes) < 8 * 1024
    assert max(sizes) <= 1.1 * min(sizes)


# --------------------------------------------------------------------------- #
# one read path: an entry point handed a Graph compiles it once, reads that
# --------------------------------------------------------------------------- #

#: what a read path over the ``Graph`` would call
GRAPH_READS = (
    "objects",
    "subjects",
    "has_triple",
    "neighbors",
    "entities_of_type",
    "entity_type",
    "has_entity",
    "out_triples",
    "in_triples",
)


def _refused(name: str):
    def read(*_args, **_kwargs):
        raise AssertionError(f"Graph.{name} read after the snapshot was built")

    return read


@contextlib.contextmanager
def graph_sealed_after_build(monkeypatch):
    """Every ``GraphSnapshot.build`` in the block, recorded; the first one
    seals the ``Graph`` read methods as it returns."""
    builds = []
    build = GraphSnapshot.build.__func__

    def sealing_build(cls, graph):
        snapshot = build(cls, graph)
        builds.append(snapshot)
        for name in GRAPH_READS:
            patch.setattr(Graph, name, _refused(name))
        return snapshot

    with monkeypatch.context() as patch:
        patch.setattr(GraphSnapshot, "build", classmethod(sealing_build))
        yield builds


@pytest.fixture
def workload():
    """88 entities, the keys, and the duplicates the chase must find."""
    dataset = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=5, seed=7
    )
    reference = naive_chase(dataset.graph, dataset.keys)
    assert reference
    return dataset.graph, dataset.keys, reference


@pytest.mark.parametrize("blocking", ["off", "auto"])
def test_chase_reads_one_snapshot(workload, blocking, monkeypatch):
    graph, keys, reference = workload
    with graph_sealed_after_build(monkeypatch) as builds:
        result = chase(graph, keys, blocking=blocking)
    assert len(builds) == 1
    assert result.pairs() == reference


def test_filtered_candidates_read_one_snapshot(workload, monkeypatch):
    graph, keys, reference = workload
    with graph_sealed_after_build(monkeypatch) as builds:
        candidates = build_filtered_candidates(graph, keys, blocking="auto")
    assert len(builds) == 1
    assert candidates.neighborhoods.snapshot is builds[0]
    assert reference <= set(candidates.pairs)  # no false negatives


def test_blocking_index_reads_one_snapshot(workload, monkeypatch):
    graph, keys, reference = workload
    with graph_sealed_after_build(monkeypatch) as builds:
        pairs, _ = BlockingIndex.build(graph, keys).candidate_pairs("auto")
    assert len(builds) == 1
    assert reference <= set(pairs)
