"""Tests of candidate-set construction, the pairing filter and dependencies."""

from __future__ import annotations

import pytest

from repro.core.chase import chase
from repro.matching.candidates import (
    build_candidates,
    build_filtered_candidates,
    dependency_map,
)


class TestBuildCandidates:
    def test_unfiltered_candidates_music(self, music):
        graph, keys, _ = music
        candidates = build_candidates(graph, keys)
        assert candidates.size == candidates.unfiltered_size == 6
        assert candidates.neighborhoods.total_size() > 0

    def test_filter_never_drops_identifiable_pairs(self, music, business, small_synthetic):
        cases = [music[:2], business[:2], (small_synthetic.graph, small_synthetic.keys)]
        for graph, keys in cases:
            identified = chase(graph, keys).pairs()
            filtered = build_filtered_candidates(graph, keys)
            assert identified <= set(filtered.pairs)

    def test_filter_reduces_candidates_on_synthetic_data(self, small_synthetic):
        graph, keys = small_synthetic.graph, small_synthetic.keys
        unfiltered = build_candidates(graph, keys)
        filtered = build_filtered_candidates(graph, keys)
        assert filtered.size <= unfiltered.size
        assert 0.0 <= filtered.reduction_ratio() <= 1.0

    def test_neighborhood_reduction_factor(self, small_synthetic):
        graph, keys = small_synthetic.graph, small_synthetic.keys
        filtered = build_filtered_candidates(graph, keys, reduce_neighborhoods=True)
        assert filtered.neighborhood_reduction_factor() >= 1.0

    def test_reduce_neighborhoods_flag(self, music):
        graph, keys, _ = music
        kept = build_filtered_candidates(graph, keys, reduce_neighborhoods=False)
        reduced = build_filtered_candidates(graph, keys, reduce_neighborhoods=True)
        assert kept.neighborhoods.total_size() >= reduced.neighborhoods.total_size()


class TestDependencyMap:
    def test_music_dependencies(self, music):
        """(art1, art2) depends on (alb1, alb2) through the recursive key Q3."""
        graph, keys, _ = music
        candidates = build_candidates(graph, keys)
        dependents = dependency_map(keys, candidates)
        assert ("art1", "art2") in dependents[("alb1", "alb2")]

    def test_value_based_only_keys_have_no_dependencies(self, address):
        graph, keys, _ = address
        candidates = build_candidates(graph, keys)
        dependents = dependency_map(keys, candidates)
        assert all(not deps for deps in dependents.values())

    def test_synthetic_chain_dependencies_point_upwards(self, small_synthetic):
        graph, keys = small_synthetic.graph, small_synthetic.keys
        candidates = build_candidates(graph, keys)
        dependents = dependency_map(keys, candidates)
        # at least one level-2 pair must have a level-1 dependent
        assert any(deps for deps in dependents.values())
