"""Tests of the guided, early-terminating per-pair check (EvalMR)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.equivalence import EquivalenceRelation
from repro.core.eval_guided import GuidedPairEvaluator
from repro.core.matching import identify_pair_by_enumeration
from repro.datasets.business import business_dataset, business_graph, key_q4, key_q5
from repro.datasets.music import key_q1, key_q2, key_q3, music_dataset, music_graph
from repro.storage import GraphSnapshot, SnapshotNeighborhoodIndex


class TestGuidedEvaluator:
    def test_value_based_identification(self):
        graph = music_graph()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        assert evaluator.identify(key_q2(), "alb1", "alb2", eq)
        assert not evaluator.identify(key_q2(), "alb1", "alb3", eq)

    def test_recursive_identification_needs_eq(self):
        graph = music_graph()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        assert not evaluator.identify(key_q3(), "art1", "art2", eq)
        eq.merge("alb1", "alb2")
        assert evaluator.identify(key_q3(), "art1", "art2", eq)

    def test_wildcards_do_not_require_identity(self):
        """Q4 identifies (com4, com5) even though their same-named parents differ."""
        graph = business_graph()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        assert evaluator.identify(key_q4(), "com4", "com5", eq)

    def test_type_mismatch_returns_false(self):
        graph = music_graph()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        assert not evaluator.identify(key_q2(), "art1", "art2", eq)
        assert not evaluator.identify(key_q2(), "alb1", "missing", eq)

    def test_witness_contains_all_pattern_nodes(self):
        graph = music_graph()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        witness = evaluator.identify_with_witness(key_q2(), "alb1", "alb2", eq)
        assert witness is not None
        assert set(witness.keys()) == key_q2().pattern.node_names()
        assert witness["x"] == ("alb1", "alb2")

    def test_identify_with_any_returns_first_matching_key(self):
        graph = music_graph()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        found = evaluator.identify_with_any([key_q1(), key_q2()], "alb1", "alb2", eq)
        assert found is not None and found.name == "Q2"
        assert evaluator.identify_with_any([key_q1()], "alb1", "alb2", eq) is None

    def test_neighborhood_restriction(self):
        graph, keys = music_dataset()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        index = SnapshotNeighborhoodIndex(GraphSnapshot.build(graph), keys)
        assert evaluator.identify(
            key_q2(), "alb1", "alb2", eq, index.nodes("alb1"), index.nodes("alb2")
        )
        # an overly small neighbourhood hides the witness
        assert not evaluator.identify(key_q2(), "alb1", "alb2", eq, {"alb1"}, {"alb2"})

    def test_statistics_accumulate(self):
        graph = music_graph()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        evaluator.identify(key_q2(), "alb1", "alb2", eq)
        evaluator.identify(key_q2(), "alb1", "alb3", eq)
        stats = evaluator.stats
        assert stats.calls == 2
        assert stats.successes == 1
        assert stats.work > 0


class TestAgreementWithEnumeration:
    """Lemma 8: the guided check agrees with the enumerate-then-coincide semantics."""

    @pytest.mark.parametrize("dataset_name", ["music", "business"])
    def test_guided_equals_enumeration_on_paper_examples(self, dataset_name):
        graph, keys = music_dataset() if dataset_name == "music" else business_dataset()
        evaluator = GuidedPairEvaluator(graph)
        eq = EquivalenceRelation()
        for key in keys:
            entities = graph.entities_of_type(key.target_type)
            for e1, e2 in itertools.combinations(entities, 2):
                guided = evaluator.identify(key, e1, e2, eq)
                enumerated = identify_pair_by_enumeration(graph, key, e1, e2, eq=eq)
                assert guided == enumerated, (key.name, e1, e2)
