"""Tests of the pairing relation (Proposition 9) and neighbourhood reduction."""

from __future__ import annotations

import itertools

import pytest

from repro.core.chase import chase
from repro.core.equivalence import EquivalenceRelation
from repro.core.pairing import (
    can_pair,
    can_pair_with_any,
    pairing_relation,
    pairing_support_nodes,
    reduced_neighborhoods,
)
from repro.datasets.music import key_q1, key_q2, key_q3, music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.storage import GraphSnapshot, SnapshotNeighborhoodIndex


@pytest.fixture
def music_env():
    graph, keys = music_dataset()
    index = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
    return graph, keys, index


class TestPairingRelation:
    def test_identifiable_pair_is_paired(self, music_env):
        graph, keys, index = music_env
        relation = pairing_relation(
            graph, key_q2(), "alb1", "alb2", index.nodes("alb1"), index.nodes("alb2")
        )
        assert relation is not None
        assert ("alb1", "alb2") in relation["x"]

    def test_pairing_is_necessary_condition(self, music_env):
        """Prop. 9(a): pairs that cannot be paired are never identified."""
        graph, keys, index = music_env
        result = chase(graph, keys)
        for etype in keys.target_types():
            for e1, e2 in itertools.combinations(graph.entities_of_type(etype), 2):
                paired = can_pair_with_any(
                    graph,
                    keys.keys_for_type(etype),
                    e1,
                    e2,
                    index.nodes(e1),
                    index.nodes(e2),
                )
                if result.identified(e1, e2):
                    assert paired, f"identified pair ({e1}, {e2}) must be pairable"

    def test_unpairable_pair(self, music_env):
        graph, keys, index = music_env
        # alb1 and alb3 have different release years but both have *some* year,
        # so Q2 can still pair them; a pair across missing structure cannot:
        graph.add_entity("alb_orphan", "album")
        index2 = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
        assert not can_pair(
            graph, key_q2(), "alb1", "alb_orphan",
            index2.nodes("alb1"), index2.nodes("alb_orphan"),
        )

    def test_support_nodes_cover_designated(self, music_env):
        graph, keys, index = music_env
        relation = pairing_relation(
            graph, key_q2(), "alb1", "alb2", index.nodes("alb1"), index.nodes("alb2")
        )
        side1, side2 = pairing_support_nodes(relation)
        assert "alb1" in side1 and "alb2" in side2


class TestReducedNeighborhoods:
    def test_reduction_preserves_identifiability(self, music_env):
        graph, keys, index = music_env
        evaluatorless_eq = EquivalenceRelation()
        reduced = reduced_neighborhoods(
            graph,
            keys.keys_for_type("album"),
            "alb1",
            "alb2",
            index.nodes("alb1"),
            index.nodes("alb2"),
        )
        assert reduced is not None
        reduced1, reduced2 = reduced
        assert reduced1 <= index.nodes("alb1")
        assert reduced2 <= index.nodes("alb2")
        from repro.core.eval_guided import GuidedPairEvaluator

        evaluator = GuidedPairEvaluator(graph)
        assert evaluator.identify(key_q2(), "alb1", "alb2", evaluatorless_eq, reduced1, reduced2)

    def test_reduction_returns_none_when_unpairable(self, music_env):
        graph, keys, index = music_env
        graph.add_entity("alb_orphan", "album")
        index2 = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
        assert (
            reduced_neighborhoods(
                graph,
                keys.keys_for_type("album"),
                "alb1",
                "alb_orphan",
                index2.nodes("alb1"),
                index2.nodes("alb_orphan"),
            )
            is None
        )

    def test_reduction_shrinks_on_synthetic_data(self):
        dataset = synthetic_dataset(num_keys=4, chain_length=2, radius=2, entities_per_type=5)
        graph, keys = dataset.graph, dataset.keys
        index = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
        etype = next(iter(keys.target_types()))
        entities = graph.entities_of_type(etype)
        e1, e2 = entities[0], entities[1]
        nbhd1, nbhd2 = index.nodes(e1), index.nodes(e2)
        reduced = reduced_neighborhoods(
            graph, keys.keys_for_type(etype), e1, e2, nbhd1, nbhd2
        )
        if reduced is not None:
            assert len(reduced[0]) <= len(nbhd1)
            assert len(reduced[1]) <= len(nbhd2)
