"""Tests of the simulated vertex-centric asynchronous engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import pytest

from repro.exceptions import VertexCentricError
from repro.vertexcentric import VertexCentricEngine


@dataclass
class CounterState:
    value: int = 0
    log: List[object] = field(default_factory=list)


class PropagateProgram:
    """A vertex program that propagates a token along explicit 'next' links."""

    def __init__(self, links):
        self._links = links

    def on_message(self, vertex_id, state, payload, context):
        state.value += payload
        state.log.append(payload)
        context.add_work(2)
        nxt = self._links.get(vertex_id)
        if nxt is not None:
            context.send(nxt, payload + 1)


class TestEngine:
    def test_chain_propagation(self):
        links = {"a": "b", "b": "c"}
        engine = VertexCentricEngine(PropagateProgram(links), processors=2)
        for vertex in ("a", "b", "c"):
            engine.add_vertex(vertex, CounterState())
        engine.post("a", 1)
        engine.run()
        assert engine.vertex_state("a").value == 1
        assert engine.vertex_state("b").value == 2
        assert engine.vertex_state("c").value == 3
        assert engine.stats.messages_processed == 3
        assert engine.simulated_seconds() > 0

    def test_messages_to_unknown_vertices_are_dropped(self):
        engine = VertexCentricEngine(PropagateProgram({"a": "ghost"}), processors=1)
        engine.add_vertex("a", CounterState())
        engine.post("a", 1)
        engine.run()
        assert engine.stats.messages_dropped == 1

    def test_hosted_states_are_made_on_first_delivery(self):
        """The serial drain makes a hosted vertex's state when a message first
        reaches it; a vertex no message reaches never gets one, and a message
        to a vertex outside the universe is dropped as before."""
        made = []

        def make_state(vertex):
            made.append(vertex)
            return CounterState()

        links = {"a": "b", "b": "ghost"}
        engine = VertexCentricEngine(PropagateProgram(links), processors=2)
        engine.host({"a", "b", "c"}, make_state)
        assert engine.has_vertex("c") and not engine.has_vertex("ghost")
        engine.post("a", 1)
        engine.run()
        assert made == ["a", "b"]
        assert engine.vertex_state("b").value == 2
        assert engine.stats.messages_dropped == 1
        assert engine.vertex_state("c").value == 0 and made[-1] == "c"
        with pytest.raises(VertexCentricError):
            engine.vertex_state("ghost")

    def test_duplicate_vertex_rejected(self):
        engine = VertexCentricEngine(PropagateProgram({}), processors=1)
        engine.add_vertex("a", CounterState())
        with pytest.raises(VertexCentricError):
            engine.add_vertex("a", CounterState())

    def test_unknown_state_lookup_rejected(self):
        engine = VertexCentricEngine(PropagateProgram({}), processors=1)
        with pytest.raises(VertexCentricError):
            engine.vertex_state("nope")

    def test_invalid_processor_count(self):
        with pytest.raises(VertexCentricError):
            VertexCentricEngine(PropagateProgram({}), processors=0)

    def test_message_budget_guard(self):
        class LoopProgram:
            def on_message(self, vertex_id, state, payload, context):
                context.send(vertex_id, payload)

        engine = VertexCentricEngine(LoopProgram(), processors=1, max_messages=50)
        engine.add_vertex("a", CounterState())
        engine.post("a", 0)
        with pytest.raises(VertexCentricError):
            engine.run()

    def test_work_attribution_and_cost_model(self):
        links = {"a": "b"}
        engine = VertexCentricEngine(PropagateProgram(links), processors=3)
        engine.add_vertex("a", CounterState())
        engine.add_vertex("b", CounterState())
        engine.post("a", 1)
        engine.run()
        model = engine.cost_model
        # each handled message charges 1 (delivery) + 2 (program) work units
        assert sum(model.worker_work) == 6
        assert model.messages_sent == 2
        breakdown = model.breakdown()
        assert breakdown["total_seconds"] == pytest.approx(model.simulated_seconds())

    def test_reading_other_vertex_state(self):
        class PeekProgram:
            def on_message(self, vertex_id, state, payload, context):
                other = context.state(payload)
                state.value = other.value + 10

        engine = VertexCentricEngine(PeekProgram(), processors=1)
        engine.add_vertex("a", CounterState(value=5))
        engine.add_vertex("b", CounterState())
        engine.post("b", "a")
        engine.run()
        assert engine.vertex_state("b").value == 15


class Unorderable:
    """A payload that must never be compared."""

    def __lt__(self, other):  # pragma: no cover - the point is that it never runs
        raise AssertionError("the heap compared two payloads")

    __gt__ = __le__ = __ge__ = __lt__


class ScriptedProgram:
    """Fans a token out along a fixed script: some sends at low priority, one
    to a vertex that does not exist."""

    SCRIPT = {
        "a": [("b", 0), ("c", 5), ("d", 0)],
        "b": [("e", 0), ("f", 0), ("ghost", 0)],
        "c": [("a", 0)],
        "d": [("e", 5), ("b", 0)],
        "e": [("f", 0)],
        "f": [],
    }

    def on_message(self, vertex_id, state, payload, context):
        state.log.append(payload)
        context.add_work(len(state.log))
        if payload >= 3:
            return
        for target, priority in self.SCRIPT[vertex_id]:
            context.send(target, payload + 1, priority=priority)


class TestEngineContract:
    """What a faster drain must not change.  The numbers were written down
    from the engine as it stood before its drain was rewritten (one context
    and one dataclass message per delivery)."""

    def test_scripted_three_worker_run_keeps_every_counter(self):
        engine = VertexCentricEngine(ScriptedProgram(), processors=3)
        for vertex in "abcdef":
            engine.add_vertex(vertex, CounterState())
        engine.post("a", 0)
        engine.post("d", 1, priority=5)
        engine.run()
        assert vars(engine._scheduler.stats) == {
            "enqueued": 22, "processed": 22, "max_queue_length": 7, "turns": 8,
        }
        assert vars(engine.stats) == {
            "vertices": 6, "messages_sent": 22, "messages_processed": 22, "messages_dropped": 3,
        }
        model = engine.cost_model
        assert [model.worker_for(vertex) for vertex in "abcdef"] == [2, 0, 0, 1, 1, 2]
        assert model.worker_work == [19, 29, 32]
        assert (model.messages_sent, model.messages_processed) == (22, 22)
        # the delivery order at every vertex: (priority, send order) per worker
        assert {vertex: engine.vertex_state(vertex).log for vertex in "abcdef"} == {
            "a": [0, 2], "b": [2, 1, 2, 3], "c": [1, 3], "d": [1, 1, 3],
            "e": [3, 2, 3, 2, 2], "f": [3, 2, 3, 3, 3, 3],
        }

    def test_queue_order_never_compares_targets_or_payloads(self):
        class Relay:
            def on_message(self, vertex_id, state, payload, context):
                state.log.append(payload)
                if vertex_id == "hub":
                    for target in (1, "one", (1, "one"), (1, 1)):  # mutually unorderable
                        context.send(target, Unorderable())

        engine = VertexCentricEngine(Relay(), processors=1)
        for vertex in ("hub", 1, "one", (1, "one"), (1, 1)):
            engine.add_vertex(vertex, CounterState())
        engine.post("hub", Unorderable())
        engine.post("hub", Unorderable())
        engine.run()
        assert engine.stats.messages_processed == 10
        assert [len(engine.vertex_state(v).log) for v in (1, "one", (1, "one"), (1, 1))] == [2] * 4

    def test_message_budget_raises_at_the_same_count(self):
        class LoopProgram:
            def on_message(self, vertex_id, state, payload, context):
                context.send(vertex_id, payload)

        engine = VertexCentricEngine(LoopProgram(), processors=1, max_messages=50)
        engine.add_vertex("a", CounterState())
        engine.post("a", 0)
        with pytest.raises(VertexCentricError, match=r"message budget exceeded \(50\)"):
            engine.run()
        # the 51st delivery trips the valve, and is counted
        assert engine._scheduler.stats.processed == 51
        assert engine.stats.messages_processed == 51
        assert engine.cost_model.messages_processed == 51
        assert engine.stats.messages_sent == engine._scheduler.stats.enqueued == 52
        assert engine.cost_model.worker_work == [51]

    def test_post_and_send_to_unknown_vertices_are_dropped_and_counted(self):
        engine = VertexCentricEngine(PropagateProgram({"a": "ghost"}), processors=2)
        engine.add_vertex("a", CounterState())
        engine.post("phantom", 1)
        engine.post("a", 1)
        engine.run()
        assert engine.stats.messages_dropped == 2
        assert engine.stats.messages_sent == engine.stats.messages_processed == 1
        assert engine._scheduler.stats.enqueued == 1

    def test_context_state_of_an_unknown_vertex_is_a_typed_error(self):
        class PeekGhost:
            def on_message(self, vertex_id, state, payload, context):
                assert context.state() is state and context.has_vertex(vertex_id)
                assert not context.has_vertex("ghost")
                context.state("ghost")

        engine = VertexCentricEngine(PeekGhost(), processors=1)
        engine.add_vertex("a", CounterState())
        engine.post("a", 1)
        with pytest.raises(VertexCentricError, match="unknown vertex 'ghost'"):
            engine.run()

    def test_a_placement_table_outlives_its_engine(self):
        from repro.vertexcentric.cost_model import Placement

        def run(placement):
            engine = VertexCentricEngine(ScriptedProgram(), processors=3, placement=placement)
            for vertex in "abcdef":
                engine.add_vertex(vertex, CounterState())
            engine.post("a", 0)
            engine.run()
            return engine.cost_model

        table = Placement(3)
        reference = run(None)
        assert run(table).worker_work == reference.worker_work
        assert table == {vertex: reference.worker_for(vertex) for vertex in "abcdef"}
        assert run(table).worker_work == reference.worker_work  # read, not re-hashed
        with pytest.raises(VertexCentricError, match="placement table is for 3 workers"):
            VertexCentricEngine(ScriptedProgram(), processors=4, placement=table)
