"""Tests of the sequential chase (Section 3) on the paper's examples."""

from __future__ import annotations

import pytest

from repro.core.chase import ChaseResult, candidate_pairs, chase, entities_identified
from repro.core.key import KeySet
from repro.datasets.music import key_q1, key_q2, key_q3
from repro.exceptions import MatchingError

from tests.naive_semantics import naive_chase


class TestCandidatePairs:
    def test_candidates_are_same_type_keyed_pairs(self, music):
        graph, keys, _ = music
        pairs = candidate_pairs(graph, keys)
        assert ("alb1", "alb2") in pairs
        assert ("art1", "art3") in pairs
        assert all(graph.entity_type(a) == graph.entity_type(b) for a, b in pairs)
        # 3 albums and 3 artists → 3 + 3 candidate pairs
        assert len(pairs) == 6

    def test_no_candidates_without_keys(self, music):
        graph, _, _ = music
        assert candidate_pairs(graph, KeySet()) == []


class TestChaseExamples:
    def test_example7_music(self, music):
        """Example 7: (alb1, alb2) by Q2, then (art1, art2) by Q3."""
        graph, keys, expected = music
        result = chase(graph, keys)
        assert result.pairs() == expected
        step_albums = result.step_for("alb1", "alb2")
        step_artists = result.step_for("art1", "art2")
        assert step_albums is not None and step_albums.key_name == "Q2"
        assert step_artists is not None and step_artists.key_name == "Q3"
        # the artists' identification depends on the albums' identification
        assert ("alb1", "alb2") in step_artists.prerequisites

    def test_example7_business(self, business):
        graph, keys, expected = business
        result = chase(graph, keys)
        assert result.pairs() == expected

    def test_address_q6(self, address):
        graph, keys, expected = address
        result = chase(graph, keys)
        assert result.pairs() == expected

    def test_decision_problem_wrapper(self, music):
        graph, keys, _ = music
        assert entities_identified(graph, keys, "alb1", "alb2")
        assert not entities_identified(graph, keys, "alb1", "alb3")

    def test_empty_keyset_identifies_nothing(self, music):
        graph, _, _ = music
        result = chase(graph, KeySet())
        assert result.pairs() == set()

    def test_summary_and_counters(self, music):
        graph, keys, _ = music
        result = chase(graph, keys)
        summary = result.summary()
        assert summary["identified_pairs"] == 2
        assert summary["direct_steps"] == 2
        assert summary["rounds"] >= 2
        assert result.checks > 0
        assert result.eval_stats.work > 0

    def test_unknown_entity_in_explicit_order_rejected(self, music):
        graph, keys, _ = music
        with pytest.raises(MatchingError):
            chase(graph, keys, pair_order=[("alb1", "ghost")])


class TestChaseOrders:
    """Proposition 1 (Church–Rosser): the chase result is order-independent."""

    def test_reversed_pair_order(self, music):
        graph, keys, expected = music
        pairs = candidate_pairs(graph, keys)
        forward = chase(graph, keys, pair_order=pairs)
        backward = chase(graph, keys, pair_order=list(reversed(pairs)))
        assert forward.pairs() == backward.pairs() == expected

    def test_reversed_key_order(self, music):
        graph, keys, expected = music
        reordered = [key_q3(), key_q2(), key_q1()]
        result = chase(graph, keys, key_order=reordered)
        assert result.pairs() == expected

    def test_without_neighborhood_locality(self, music):
        """Data locality: restricting checks to d-neighbourhoods changes
        nothing — the chase agrees with a matcher that reads none."""
        graph, keys, expected = music
        assert chase(graph, keys).pairs() == naive_chase(graph, keys) == expected

    def test_provenance_can_be_disabled(self, music):
        graph, keys, expected = music
        result = chase(graph, keys, record_provenance=False)
        assert result.pairs() == expected
        assert result.steps == []
