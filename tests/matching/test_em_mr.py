"""Tests specific to the MapReduce algorithms (EMMR, EMVF2MR, EMOptMR)."""

from __future__ import annotations

import pytest

from repro.matching import em_mr, em_mr_opt, em_vf2_mr
from repro.matching.checkers import EnumerationChecker, GuidedChecker
from repro.core.equivalence import EquivalenceRelation
from repro.datasets.music import key_q2, music_graph
from repro.datasets.synthetic import synthetic_dataset


class TestCheckers:
    def test_guided_checker_reports_work(self):
        graph = music_graph()
        checker = GuidedChecker(graph)
        identified, work = checker.check(
            [key_q2()], "alb1", "alb2", EquivalenceRelation(), None, None
        )
        assert identified and work >= 1

    def test_enumeration_checker_agrees_with_guided(self):
        graph = music_graph()
        guided = GuidedChecker(graph)
        enumerated = EnumerationChecker(graph)
        eq = EquivalenceRelation()
        for pair in (("alb1", "alb2"), ("alb1", "alb3")):
            left, _ = guided.check([key_q2()], *pair, eq, None, None)
            right, _ = enumerated.check([key_q2()], *pair, eq, None, None)
            assert left == right


class TestEMMRBehaviour:
    def test_round_count_matches_example8(self, music):
        """Example 8: EMMR takes three rounds on (G1, Σ1)."""
        graph, keys, _ = music
        result = em_mr(graph, keys, processors=4)
        assert result.stats.rounds == 3

    def test_rounds_grow_with_dependency_chain(self):
        shallow = synthetic_dataset(num_keys=4, chain_length=1, radius=1, entities_per_type=4)
        deep = synthetic_dataset(num_keys=4, chain_length=4, radius=1, entities_per_type=4)
        shallow_rounds = em_mr(shallow.graph, shallow.keys).stats.rounds
        deep_rounds = em_mr(deep.graph, deep.keys).stats.rounds
        assert deep_rounds > shallow_rounds

    def test_statistics_populated(self, music):
        graph, keys, _ = music
        result = em_mr(graph, keys, processors=4)
        stats = result.stats
        assert stats.candidate_pairs == 6
        assert stats.checks > 0
        assert stats.shuffled_records > 0
        assert stats.identified_pairs == 2
        assert result.cost_breakdown["total_seconds"] == pytest.approx(
            result.simulated_seconds
        )

    def test_more_processors_reduce_simulated_time(self):
        dataset = synthetic_dataset(num_keys=8, chain_length=2, radius=2, entities_per_type=6)
        slow = em_mr(dataset.graph, dataset.keys, processors=4).simulated_seconds
        fast = em_mr(dataset.graph, dataset.keys, processors=20).simulated_seconds
        assert fast < slow

    def test_vf2_baseline_charges_at_least_as_much_work(self, music):
        graph, keys, _ = music
        guided = em_mr(graph, keys, processors=4)
        baseline = em_vf2_mr(graph, keys, processors=4)
        assert baseline.pairs() == guided.pairs()
        assert baseline.stats.work_units >= guided.stats.work_units


class TestEMOptMR:
    def test_opt_does_not_change_the_result(self, music, business):
        for graph, keys, expected in (music, business):
            assert em_mr_opt(graph, keys).pairs() == expected

    def test_opt_reduces_checks_on_synthetic_data(self):
        dataset = synthetic_dataset(num_keys=8, chain_length=3, radius=2, entities_per_type=6)
        base = em_mr(dataset.graph, dataset.keys, processors=4)
        optimized = em_mr_opt(dataset.graph, dataset.keys, processors=4)
        assert optimized.pairs() == base.pairs() == dataset.planted_pairs
        assert optimized.stats.checks <= base.stats.checks
        assert optimized.stats.processed_pairs <= base.stats.processed_pairs

    def test_opt_is_not_slower_in_simulated_time(self):
        dataset = synthetic_dataset(num_keys=8, chain_length=3, radius=2, entities_per_type=6)
        base = em_mr(dataset.graph, dataset.keys, processors=4)
        optimized = em_mr_opt(dataset.graph, dataset.keys, processors=4)
        assert optimized.simulated_seconds <= base.simulated_seconds * 1.05


class TestPlansTravel:
    """Keys ship to process workers in the Haloop cache, compiled plans and all."""

    @staticmethod
    def _looped_dataset():
        """The synthetic workload plus a key whose pattern carries a self-loop,
        on entities of which some have the loop, so that a worker that lost a
        plan's ``loops`` would identify more pairs than the driver's chase."""
        from repro.core.key import Key, KeySet
        from repro.core.pattern import PatternTriple, designated, value_var

        dataset = synthetic_dataset(num_keys=4, chain_length=2, radius=2, entities_per_type=4)
        graph = dataset.graph
        x = designated("x", "looped")
        key = Key.from_triples(
            [PatternTriple(x, "again", x), PatternTriple(x, "tag", value_var("t"))],
            name="Qloop",
        )
        for index in range(6):
            graph.add_entity(f"loop{index}", "looped")
            graph.add_value(f"loop{index}", "tag", index % 2)
            if index < 4:
                graph.add_edge(f"loop{index}", "again", f"loop{index}")
        keys = KeySet(list(dataset.keys) + [key])
        expected = dataset.planted_pairs | {("loop0", "loop2"), ("loop1", "loop3")}
        return graph, keys, expected

    @pytest.mark.parametrize("algorithm", ["EMMR", "EMOptMR", "EMVF2MR"])
    def test_process_workers_run_the_plans_the_driver_compiled(self, algorithm):
        from repro.api.session import MatchSession

        graph, keys, expected = self._looped_dataset()
        session = MatchSession(graph).with_keys(keys)
        serial = session.run(algorithm, processors=4)
        pooled = session.run(algorithm, processors=4, executor="process", workers=2)
        assert serial.pairs() == pooled.pairs() == expected
        assert sorted(map(sorted, pooled.eq.classes())) == sorted(map(sorted, serial.eq.classes()))
        assert pooled.stats.as_dict() == serial.stats.as_dict()
        assert pooled.simulated_seconds == serial.simulated_seconds
        assert pooled.cost_breakdown == serial.cost_breakdown

    def test_an_unpickled_key_set_carries_its_plans(self, monkeypatch):
        import pickle

        from repro.core.chase import chase
        from repro.core.pattern import GraphPattern

        graph, keys, expected = self._looped_dataset()
        blob = pickle.dumps(keys)
        compiles = []
        for name in ("_compile", "_connected_order"):
            original = getattr(GraphPattern, name)

            def counted(self, *args, _original=original):
                compiles.append(self)
                return _original(self, *args)

            monkeypatch.setattr(GraphPattern, name, counted)
        shipped = pickle.loads(blob)
        for sent, arrived in zip(keys, shipped):
            assert arrived.pattern.guided_plan == sent.pattern.guided_plan
            assert arrived.pattern.enumeration_plan == sent.pattern.enumeration_plan
        assert chase(graph, shipped).pairs() == expected
        assert compiles == []

        # what the plans add to the shipped bytes is the plan tuples, no more
        plans = [(key.pattern.guided_plan, key.pattern.enumeration_plan) for key in keys]
        for key in shipped:
            del key.pattern._guided_plan, key.pattern._enumeration_plan
        assert len(blob) <= len(pickle.dumps(shipped)) + len(pickle.dumps(plans))
