"""The GraphSnapshot contract: round-trip fidelity, interning, pickling.

The hypothesis round-trip property drives randomly shaped graphs through
``GraphSnapshot.build`` and asserts the snapshot is an exact read view of
the source ``Graph``: entities, triples, type buckets, in/out adjacency and
undirected neighbourhoods all identical.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph
from repro.core.triples import Literal, Triple
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.exceptions import UnknownEntityError
from repro.storage import GraphSnapshot, SnapshotNeighborhoodIndex

from tests.naive_semantics import naive_ball

# --------------------------------------------------------------------- #
# hypothesis graph strategy
# --------------------------------------------------------------------- #

_TYPES = ("album", "artist", "song", "label")
_PREDS = ("name_of", "recorded_by", "signed_to", "track_of")


@st.composite
def graphs(draw) -> Graph:
    """Small random graphs mixing entity edges, value edges and loose nodes."""
    graph = Graph()
    num_entities = draw(st.integers(min_value=1, max_value=12))
    entities = []
    for index in range(num_entities):
        etype = draw(st.sampled_from(_TYPES))
        eid = f"{etype[:2]}{index}"
        graph.add_entity(eid, etype)
        entities.append(eid)
    num_edges = draw(st.integers(min_value=0, max_value=24))
    for _ in range(num_edges):
        subject = draw(st.sampled_from(entities))
        predicate = draw(st.sampled_from(_PREDS))
        if draw(st.booleans()):
            graph.add_edge(subject, predicate, draw(st.sampled_from(entities)))
        else:
            value = draw(
                st.one_of(
                    st.integers(min_value=-5, max_value=5),
                    st.sampled_from(["x", "y", "z"]),
                    st.booleans(),
                )
            )
            graph.add_value(subject, predicate, value)
    return graph


@given(graph=graphs())
@settings(max_examples=60, deadline=None)
def test_snapshot_round_trip_property(graph):
    """GraphSnapshot(graph) <-> Graph: every read answer identical."""
    snapshot = GraphSnapshot.build(graph)

    # entities and type buckets
    assert snapshot.num_entities == graph.num_entities
    assert set(snapshot.entity_ids()) == set(graph.entity_ids())
    assert snapshot.types() == graph.types()
    for etype in graph.types() | {"missing-type"}:
        assert snapshot.entities_of_type(etype) == graph.entities_of_type(etype)
    for entity in graph.entity_ids():
        assert snapshot.has_entity(entity)
        assert snapshot.entity_type(entity) == graph.entity_type(entity)
        assert snapshot.entity(entity) == graph.entity(entity)

    # triples, values and predicates
    assert snapshot.num_triples == graph.num_triples
    assert set(snapshot.triples()) == set(graph.triples())
    assert snapshot.value_nodes() == graph.value_nodes()
    assert snapshot.predicates() == graph.predicates()

    # in/out adjacency and undirected neighbourhoods, node by node
    nodes = list(graph.entity_ids()) + sorted(graph.value_nodes(), key=repr)
    for node in nodes:
        if isinstance(node, str):
            assert snapshot.out_triples(node) == graph.out_triples(node)
            for predicate in graph.predicates():
                assert snapshot.objects(node, predicate) == graph.objects(node, predicate)
        assert snapshot.in_triples(node) == graph.in_triples(node)
        for predicate in graph.predicates():
            assert snapshot.subjects(predicate, node) == graph.subjects(predicate, node)
        assert snapshot.neighbors(node) == graph.neighbors(node)
        assert snapshot.degree(node) == graph.degree(node)

    for triple in graph.triples():
        assert snapshot.has_triple(triple.subject, triple.predicate, triple.obj)
        assert triple in snapshot
    assert not snapshot.has_triple(
        next(iter(graph.entity_ids())), "no-such-predicate", Literal("nope")
    )
    stats = snapshot.stats()
    assert stats.pop("decoded_rows") > 0  # this test read every row
    assert stats == graph.stats()


@given(graph=graphs(), radius=st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_snapshot_bfs_matches_dict_bfs(graph, radius):
    """Integer-space d-neighbourhood BFS == the reference BFS over
    ``Graph.neighbors``, any radius."""
    snapshot = GraphSnapshot.build(graph)
    for entity in graph.entity_ids():
        assert snapshot.neighborhood_nodes(entity, radius) == naive_ball(graph, entity, radius)


def test_type_buckets_are_contiguous_and_sorted():
    graph, _keys = music_dataset()
    snapshot = GraphSnapshot.build(graph)
    seen_ids = set()
    for etype in sorted(graph.types()):
        ids = list(snapshot.type_ids(etype))
        assert ids == list(range(ids[0], ids[0] + len(ids)))  # canonical: contiguous
        bucket = [snapshot.node_at(i) for i in ids]
        assert bucket == graph.entities_of_type(etype)  # in sorted entity-id order
        assert [snapshot.id_of(eid) for eid in bucket] == ids
        assert all(i in snapshot.type_ids(etype) for i in ids)
        assert seen_ids.isdisjoint(ids)
        seen_ids.update(ids)
    assert seen_ids == set(range(snapshot.num_entities))
    assert not any(snapshot.is_literal_id(i) for i in seen_ids)
    assert all(
        snapshot.is_literal_id(i)
        for i in range(snapshot.num_entities, snapshot.num_interned_nodes)
    )
    assert len(snapshot.type_ids("no-such-type")) == 0


def test_snapshot_is_read_only_and_versioned():
    graph, _keys = music_dataset()
    version = graph.version
    snapshot = GraphSnapshot.build(graph)
    assert snapshot.version == version
    assert not hasattr(snapshot, "add_entity")
    assert not hasattr(snapshot, "add_triple")
    with pytest.raises(TypeError):
        GraphSnapshot()
    with pytest.raises(UnknownEntityError):
        snapshot.entity_type("no-such-entity")


def test_snapshot_pickle_round_trip_preserves_reads():
    dataset = synthetic_dataset(
        num_keys=6, chain_length=2, radius=2, entities_per_type=4, seed=11
    )
    graph = dataset.graph
    snapshot = GraphSnapshot.build(graph)
    clone = pickle.loads(pickle.dumps(snapshot))
    assert clone.version == snapshot.version
    assert set(clone.triples()) == set(graph.triples())
    for entity in list(graph.entity_ids())[:20]:
        assert clone.entity_type(entity) == graph.entity_type(entity)
        assert clone.neighbors(entity) == graph.neighbors(entity)


def test_pickled_arrays_ship_narrow_and_unpickle_wide():
    """Ids and offsets pickle as 4-byte items and come back as the
    snapshot's own typecode, element for element."""
    dataset = synthetic_dataset(
        num_keys=6, chain_length=2, radius=2, entities_per_type=4, seed=11
    )
    snapshot = GraphSnapshot.build(dataset.graph)
    clone = pickle.loads(pickle.dumps(snapshot))
    shipped = snapshot.__getstate__()
    for name in ("_fwd_offsets", "_fwd_objs", "_und_targets", "_vindex_subjects"):
        original = getattr(snapshot, name)
        assert shipped[name].itemsize < original.itemsize
        assert getattr(clone, name).typecode == original.typecode
        assert getattr(clone, name) == original


def test_snapshot_pickles_smaller_than_graph():
    """The compact arrays must beat the dict-of-dicts graph payload."""
    dataset = synthetic_dataset(
        num_keys=10, chain_length=2, radius=2, entities_per_type=8, seed=7
    )
    graph_bytes = len(pickle.dumps(dataset.graph))
    snapshot_bytes = len(pickle.dumps(GraphSnapshot.build(dataset.graph)))
    assert snapshot_bytes < graph_bytes


def test_placement_key_interns_entities_pairs_and_passes_unknowns():
    graph, _keys = music_dataset()
    snapshot = GraphSnapshot.build(graph)
    entity = next(iter(graph.entity_ids()))
    assert snapshot.placement_key(entity) == snapshot.id_of(entity)
    other = graph.entities_of_type(graph.entity_type(entity))[-1]
    assert snapshot.placement_key((entity, other)) == (
        snapshot.id_of(entity),
        snapshot.id_of(other),
    )
    assert snapshot.placement_key("not-a-node") == "not-a-node"
    assert snapshot.placement_key(("not-a-node", 17)) == ("not-a-node", 17)


# --------------------------------------------------------------------- #
# SnapshotNeighborhoodIndex
# --------------------------------------------------------------------- #


def test_snapshot_index_matches_reference_balls_and_survives_pickle():
    dataset = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=5, seed=7
    )
    graph, keys = dataset.graph, dataset.keys
    snapshot = GraphSnapshot.build(graph)
    snap_index = SnapshotNeighborhoodIndex(snapshot, keys)
    entities = list(graph.entity_ids())
    snap_index.precompute(entities)
    balls = {}
    for entity in entities:
        radius = keys.max_radius_for_type(graph.entity_type(entity))
        assert snap_index.radius_for(entity) == radius
        balls[entity] = naive_ball(graph, entity, radius)
        assert snap_index.nodes(entity) == balls[entity]
    assert snap_index.total_size() == sum(map(len, balls.values()))
    assert snap_index.max_size() == max(map(len, balls.values()))

    # the pickled form is id-encoded and decodes lazily to the same sets
    clone = pickle.loads(pickle.dumps(snap_index))
    assert clone.cached_entities() == snap_index.cached_entities()
    assert clone.total_size() == snap_index.total_size()
    for entity in entities:
        assert clone.nodes(entity) == balls[entity]


def test_snapshot_index_clone_restrict_semantics():
    dataset = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=5, seed=7
    )
    graph, keys = dataset.graph, dataset.keys
    snap_index = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
    entity = next(iter(graph.entity_ids()))
    original = set(snap_index.nodes(entity))
    clone = snap_index.clone()
    clone.restrict(entity, set())
    assert clone.nodes(entity) == {entity}  # the entity itself is always kept
    assert snap_index.nodes(entity) == original  # the base cache is untouched


def test_snapshot_index_rebase_keeps_fresh_entries():
    dataset = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=5, seed=7
    )
    graph, keys = dataset.graph, dataset.keys
    index = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
    entities = list(graph.entity_ids())[:6]
    index.precompute(entities)
    stale, fresh = entities[0], entities[-1]
    fresh_nodes = set(index.nodes(fresh))
    rebased = index.rebased(GraphSnapshot.build(graph), evict=[stale])
    assert stale not in rebased.cached_entities()
    assert fresh in rebased.cached_entities()
    assert rebased.nodes(fresh) == fresh_nodes
