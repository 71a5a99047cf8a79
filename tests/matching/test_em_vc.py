"""Tests specific to the vertex-centric algorithms (EMVC, EMOptVC)."""

from __future__ import annotations

import pytest

from repro.matching import em_mr, em_vc, em_vc_opt
from repro.matching.em_vc import OptimizedVertexCentricEntityMatcher
from repro.datasets.synthetic import synthetic_dataset


class TestEMVCBehaviour:
    def test_no_mapreduce_rounds(self, music):
        graph, keys, _ = music
        result = em_vc(graph, keys)
        assert result.stats.rounds == 0
        assert result.stats.messages_sent > 0
        assert result.stats.messages_processed > 0

    def test_product_graph_statistics(self, music):
        graph, keys, _ = music
        result = em_vc(graph, keys)
        assert result.stats.product_graph_nodes > 0
        assert result.stats.product_graph_edges >= 0

    def test_faster_than_mapreduce_in_simulated_time(self, music):
        """The headline claim of Section 5: EMVC avoids MapReduce's inherent costs."""
        graph, keys, _ = music
        mapreduce_time = em_mr(graph, keys, processors=4).simulated_seconds
        vertex_time = em_vc(graph, keys, processors=4).simulated_seconds
        assert vertex_time < mapreduce_time

    def test_more_processors_do_not_increase_time(self):
        dataset = synthetic_dataset(num_keys=8, chain_length=2, radius=2, entities_per_type=6)
        slow = em_vc(dataset.graph, dataset.keys, processors=4).simulated_seconds
        fast = em_vc(dataset.graph, dataset.keys, processors=20).simulated_seconds
        assert fast <= slow

    def test_early_cancellation_counter_exposed(self, music):
        graph, keys, _ = music
        result = em_vc(graph, keys)
        assert "early_cancelled" in result.cost_breakdown
        assert "dep_notifications" in result.cost_breakdown


class TestEMOptVC:
    def test_same_result_as_unoptimized(self, music, business, small_synthetic):
        cases = [music[:2], business[:2], (small_synthetic.graph, small_synthetic.keys)]
        for graph, keys in cases:
            assert em_vc_opt(graph, keys).pairs() == em_vc(graph, keys).pairs()

    @pytest.mark.parametrize("fanout", [1, 2, 8])
    def test_any_fanout_budget_is_complete(self, small_synthetic, fanout):
        result = em_vc_opt(
            small_synthetic.graph, small_synthetic.keys, processors=4, fanout=fanout
        )
        assert result.pairs() == small_synthetic.planted_pairs

    def test_invalid_fanout_rejected(self, music):
        graph, keys, _ = music
        matcher = OptimizedVertexCentricEntityMatcher(graph, keys, fanout=0)
        with pytest.raises(ValueError):
            matcher.run()

    def test_bounded_messages_reduce_work_on_larger_workloads(self):
        dataset = synthetic_dataset(
            num_keys=10, chain_length=2, radius=2, entities_per_type=8, duplicate_fraction=0.3
        )
        base = em_vc(dataset.graph, dataset.keys, processors=4)
        optimized = em_vc_opt(dataset.graph, dataset.keys, processors=4)
        assert optimized.pairs() == base.pairs() == dataset.planted_pairs
        # the optimized variant never does *more* guided work; messages may tie
        # on tiny inputs but must not blow up
        assert optimized.stats.messages_processed <= base.stats.messages_processed * 1.5


class TestEvalVCProgram:
    """The vertex program one message at a time (no engine run)."""

    @staticmethod
    def _program(music, **options):
        from repro.matching.artifacts import SessionArtifacts
        from repro.matching.eval_vc import EvalVCProgram, PairState
        from repro.vertexcentric import VertexCentricEngine

        graph, keys, _ = music
        artifacts = SessionArtifacts(graph, keys)
        product_graph = artifacts.product_graph(filtered=True)
        program = EvalVCProgram(artifacts.snapshot(), keys, product_graph, **options)
        engine = VertexCentricEngine(program, processors=2)
        for node in product_graph.nodes():
            engine.add_vertex(node, PairState(flag=node[0] == node[1]))
        for pair in product_graph.candidate_nodes():
            engine.vertex_state(pair).is_candidate = True
        return program, engine

    def test_a_message_is_a_tuple_of_origin_key_step_and_fixed_width_slots(self, music):
        from repro.matching.eval_vc import Activate

        program, engine = self._program(music)
        _, keys, _ = music
        sent = []
        engine._send = sent.append
        origin = ("alb1", "alb2")
        engine.post(origin, Activate())
        (activation,) = sent
        sent.clear()
        # deliver the activation by hand: one initial message per album key
        from repro.vertexcentric import VertexContext

        context = VertexContext(engine, origin)
        program.on_message(origin, engine.vertex_state(origin), activation[4], context)
        album_keys = [key for key in keys if key.target_type == "album"]
        assert len(sent) == len(album_keys) > 0
        for key, message in zip(album_keys, sent):
            target, payload = message[2], message[4]
            assert target == origin and type(payload) is tuple
            message_origin, key_name, step_index, slots = payload
            assert (message_origin, key_name, step_index) == (origin, key.name, 0)
            nodes = list(key.pattern.nodes())
            assert len(slots) == len(nodes)
            designated = nodes.index(key.pattern.designated)
            assert slots[designated] == origin
            assert [slot for i, slot in enumerate(slots) if i != designated] == [None] * (
                len(nodes) - 1
            )

    def test_a_misrouted_message_is_a_dead_branch(self, music):
        from repro.vertexcentric import VertexContext

        program, engine = self._program(music)
        _, keys, _ = music
        key = next(key for key in keys if key.target_type == "album")
        width = len(list(key.pattern.nodes()))
        designated = list(key.pattern.nodes()).index(key.pattern.designated)
        origin, elsewhere = ("alb1", "alb2"), ("alb1", "alb3")
        slots = tuple(origin if i == designated else None for i in range(width))
        context = VertexContext(engine, elsewhere)
        # step 0 leaves from the designated node, which is instantiated to
        # *origin*: delivered anywhere else the routing check drops it
        program.on_message(
            elsewhere, engine.vertex_state(elsewhere), (origin, key.name, 0, slots), context
        )
        assert program.counters.dead_branches == 1
        assert program.counters.eval_messages == 1
        assert engine.stats.messages_sent == 0
