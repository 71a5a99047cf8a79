"""Complexity guards for the cold read path: counts, never clocks.

A snapshot decodes a CSR row into Python containers the first time that row
is read, and never the whole graph.  A blocked cold match reads only around
its candidates, so what it decodes is bounded by their d-neighbourhoods —
not by ``|G|`` — and a snapshot nobody has read yet has decoded nothing,
however it was produced.
"""

from __future__ import annotations

import pickle

from repro.api.session import MatchSession
from repro.datasets.synthetic import synthetic_dataset
from repro.matching.artifacts import SessionArtifacts
from repro.storage import GraphSnapshot, SnapshotStore

#: the CSRs a read can decode a row of: forward, backward, undirected
CSRS = 3


def _scale_4():
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8, scale=4, seed=1
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
