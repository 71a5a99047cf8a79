"""Unit tests for d-neighbourhood extraction and the neighbourhood index."""

from __future__ import annotations

import pytest

from repro.core.graph import Graph
from repro.core.triples import Literal
from repro.datasets.music import music_dataset
from repro.storage import GraphSnapshot, SnapshotNeighborhoodIndex
from repro.storage.neighborhoods import radius_per_type

from tests.naive_semantics import naive_ball


@pytest.fixture
def chain_graph() -> Graph:
    g = Graph()
    for index in range(5):
        g.add_entity(f"n{index}", "node")
    for index in range(4):
        g.add_edge(f"n{index}", "next", f"n{index + 1}")
    g.add_value("n0", "label", "start")
    return g


class TestDNeighborhood:
    """The snapshot BFS, with the reference BFS read alongside."""

    def test_radius_zero_is_just_the_entity(self, chain_graph: Graph):
        snapshot = GraphSnapshot.build(chain_graph)
        assert snapshot.neighborhood_nodes("n2", 0) == {"n2"}
        assert naive_ball(chain_graph, "n2", 0) == {"n2"}

    def test_radius_grows_symmetrically(self, chain_graph: Graph):
        snapshot = GraphSnapshot.build(chain_graph)
        for ball in (snapshot.neighborhood_nodes, lambda e, r: naive_ball(chain_graph, e, r)):
            assert ball("n2", 1) == {"n1", "n2", "n3"}
            assert ball("n2", 2) == {"n0", "n1", "n2", "n3", "n4"}
            assert Literal("start") in ball("n2", 3)

    def test_negative_radius_rejected(self, chain_graph: Graph):
        with pytest.raises(ValueError):
            GraphSnapshot.build(chain_graph).neighborhood_nodes("n0", -1)
        with pytest.raises(ValueError):
            naive_ball(chain_graph, "n0", -1)


class TestNeighborhoodIndex:
    def test_radius_per_type_uses_keys(self):
        graph, keys = music_dataset()
        radii = radius_per_type(keys)
        assert radii == {"album": 1, "artist": 1}

    def test_index_caches_and_reports_sizes(self):
        graph, keys = music_dataset()
        index = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
        nodes = index.nodes("alb1")
        assert "alb1" in nodes and "art1" in nodes
        assert index.nodes("alb1") is nodes  # cached object reused
        index.precompute(["alb2", "art1"])
        assert len(index) == 3
        assert index.total_size() >= index.max_size() > 0
        assert index.cached_entities() == {"alb1", "alb2", "art1"}

    def test_radius_for_unkeyed_type_is_zero(self):
        graph, keys = music_dataset()
        graph.add_entity("stray", "label")
        index = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
        assert index.radius_for("stray") == 0
        assert index.nodes("stray") == {"stray"}

    def test_restrict_keeps_entity(self):
        graph, keys = music_dataset()
        index = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
        index.nodes("alb1")
        index.restrict("alb1", {"art1"})
        assert index.nodes("alb1") == {"alb1", "art1"}
