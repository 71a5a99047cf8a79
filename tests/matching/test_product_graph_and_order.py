"""Tests of the product graph Gp and the traversal orders P_Q."""

from __future__ import annotations

from typing import Sequence

import pytest

from repro.core.pattern import GraphPattern, TourStep
from repro.matching.candidates import build_filtered_candidates
from repro.matching.product_graph import ProductGraph
from repro.datasets.business import business_dataset
from repro.datasets.music import key_q1, key_q2, key_q3, music_dataset
from repro.datasets.synthetic import synthetic_dataset


def build_product_graph(graph, keys) -> ProductGraph:
    candidates = build_filtered_candidates(graph, keys, reduce_neighborhoods=False)
    return ProductGraph(graph, keys, candidates)


class TestProductGraph:
    def test_candidate_pairs_are_nodes(self, music):
        graph, keys, _ = music
        product = build_product_graph(graph, keys)
        assert ("alb1", "alb2") in product.node_set()
        assert ("alb1", "alb2") in product.candidate_nodes()

    def test_value_pairs_become_nodes(self, music):
        graph, keys, _ = music
        product = build_product_graph(graph, keys)
        from repro.core.triples import Literal

        assert (Literal("Anthology 2"), Literal("Anthology 2")) in product.node_set()

    def test_forward_and_backward_neighbors(self, music):
        graph, keys, _ = music
        product = build_product_graph(graph, keys)
        forward = product.neighbors(("alb1", "alb2"), "recorded_by", True)
        assert ("art1", "art2") in forward
        backward = product.neighbors(("art1", "art2"), "recorded_by", False)
        assert ("alb1", "alb2") in backward

    def test_dependents_follow_recursive_keys(self, music):
        graph, keys, _ = music
        product = build_product_graph(graph, keys)
        assert ("art1", "art2") in product.dependents_of(("alb1", "alb2"))

    def test_tc_index(self, music):
        graph, keys, _ = music
        product = build_product_graph(graph, keys)
        touching = product.candidate_pairs_touching("alb1")
        assert ("alb1", "alb2") in touching and ("alb1", "alb3") in touching

    def test_size_is_moderate(self, small_synthetic):
        """|Gp| stays within a small factor of |G| (the paper reports ≈ 2.7×)."""
        graph, keys = small_synthetic.graph, small_synthetic.keys
        product = build_product_graph(graph, keys)
        assert product.num_nodes < graph.num_nodes ** 2
        ratio = product.size() / graph.num_triples
        assert ratio < 10.0
        stats = product.stats()
        assert stats["nodes"] == product.num_nodes
        assert product.construction_work > 0


def tour_is_valid(pattern: GraphPattern, steps: Sequence[TourStep]) -> bool:
    """Check the defining properties of a tour.

    The tour must start and end at the designated variable, consecutive steps
    must share their cursor position, and every pattern triple must be covered
    at least once.
    """
    names = [node.name for node in pattern.nodes()]
    x = names.index(pattern.designated.name)
    if not steps or steps[0][0] != x or steps[-1][1] != x:
        return False
    if any(previous[1] != current[0] for previous, current in zip(steps, steps[1:])):
        return False
    covered = {
        (names[s], p, names[t]) if forward else (names[t], p, names[s])
        for s, t, p, forward, *_ in steps
    }
    required = {(t.subject.name, t.predicate, t.obj.name) for t in pattern.triples}
    return required <= covered


class TestTraversalOrder:
    @pytest.mark.parametrize("key_factory", [key_q1, key_q2, key_q3])
    def test_music_keys_have_valid_tours(self, key_factory):
        key = key_factory()
        steps = key.pattern.tour
        assert tour_is_valid(key.pattern, steps)
        assert len(steps) == 2 * key.size  # Lemma 11: at most 2|Q| propagations

    def test_business_keys_have_valid_tours(self):
        _, keys = business_dataset()
        for key in keys:
            assert tour_is_valid(key.pattern, key.pattern.tour)

    def test_synthetic_keys_have_valid_tours(self):
        dataset = synthetic_dataset(num_keys=6, chain_length=3, radius=3, entities_per_type=3)
        for key in dataset.keys:
            steps = key.pattern.tour
            assert tour_is_valid(key.pattern, steps)
            names = [node.name for node in key.pattern.nodes()]
            assert names[steps[0][0]] == key.pattern.designated.name

    def test_every_key_of_a_set_carries_its_tour(self, music):
        _, keys, _ = music
        assert {key.name for key in keys if tour_is_valid(key.pattern, key.pattern.tour)} == {
            "Q1", "Q2", "Q3"
        }

    def test_tour_validity_checker_rejects_broken_tours(self):
        key = key_q2()
        steps = key.pattern.tour
        assert not tour_is_valid(key.pattern, steps[:-1])  # does not return to x
        assert not tour_is_valid(key.pattern, steps[1:])   # does not start at x
