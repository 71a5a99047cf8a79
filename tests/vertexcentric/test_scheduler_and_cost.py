"""Tests of the asynchronous scheduler and the vertex-centric cost model."""

from __future__ import annotations

import pytest

from repro.exceptions import VertexCentricError
from repro.vertexcentric import AsyncScheduler, Message, VertexCentricCostModel


class TestAsyncScheduler:
    def test_processes_all_messages(self):
        scheduler = AsyncScheduler(3, worker_for=lambda v: hash(v) % 3)
        seen = []
        for index in range(10):
            scheduler.enqueue(Message.create(f"v{index}", index))
        processed = scheduler.run(lambda message: seen.append(message.payload))
        assert processed == 10
        assert sorted(seen) == list(range(10))
        assert scheduler.stats.enqueued == 10
        assert scheduler.stats.processed == 10
        assert scheduler.stats.max_queue_length == 10
        assert scheduler.pending() == 0 and not scheduler.has_pending()

    def test_handlers_can_enqueue_more(self):
        scheduler = AsyncScheduler(2, worker_for=lambda v: hash(v) % 2)
        seen = []

        def handler(message):
            seen.append(message.payload)
            if message.payload < 3:
                scheduler.enqueue(Message.create("v", message.payload + 1))

        scheduler.enqueue(Message.create("v", 0))
        assert scheduler.pending() == 1 and scheduler.has_pending()
        scheduler.run(handler)
        assert seen == [0, 1, 2, 3]
        # each message was popped before its handler enqueued the next
        assert scheduler.stats.max_queue_length == 1
        assert scheduler.pending() == 0

    def test_max_queue_length_counts_all_workers_queues(self):
        scheduler = AsyncScheduler(2, worker_for=lambda v: v)
        seen = []

        def handler(message):
            seen.append(message.payload)
            if message.payload == "first":
                for worker in (0, 1, 1):
                    scheduler.enqueue(Message.create(worker, "fan-out"))

        scheduler.enqueue(Message.create(0, "first"))
        scheduler.enqueue(Message.create(1, "second"))
        scheduler.run(handler)
        # "first" is popped (1 waiting) and fans out to three more
        assert scheduler.stats.max_queue_length == 4
        assert seen == ["first", "second", "fan-out", "fan-out", "fan-out"]

    def test_priority_order_within_a_worker(self):
        scheduler = AsyncScheduler(1, worker_for=lambda v: 0)
        seen = []
        scheduler.enqueue(Message.create("v", "low priority", priority=5))
        scheduler.enqueue(Message.create("v", "high priority", priority=0))
        scheduler.run(lambda message: seen.append(message.payload))
        assert seen == ["high priority", "low priority"]

    def test_equal_priorities_pop_in_send_order_whatever_they_carry(self):
        """An entry is ``(priority, sequence, target, sender, payload)`` and the
        sequence is unique: the order is decided before the target is reached."""
        scheduler = AsyncScheduler(1, worker_for=lambda v: 0)
        targets = [1, "one", (1, "one"), None, (1, 1), 1.5]  # mutually unorderable
        for target in targets:
            scheduler.enqueue(Message.create(target, object()))  # so are the payloads
        first, second = Message.create("v", None), Message.create("v", None)
        assert first < second and first[:2] == (0, first.sequence)
        assert tuple(first) == (first.priority, first.sequence, "v", None, None)
        seen = []
        scheduler.run(lambda message: seen.append(message.target))
        assert seen == targets

    def test_message_budget(self):
        scheduler = AsyncScheduler(1, worker_for=lambda v: 0)

        def handler(message):
            scheduler.enqueue(Message.create("v", None))

        scheduler.enqueue(Message.create("v", None))
        with pytest.raises(VertexCentricError):
            scheduler.run(handler, max_messages=10)
        # the 11th message tripped the valve and is counted
        assert scheduler.stats.processed == 11 and scheduler.pending() == 1

    def test_invalid_worker_count(self):
        with pytest.raises(VertexCentricError):
            AsyncScheduler(0, worker_for=lambda v: 0)


class TestVertexCentricCostModel:
    def test_work_goes_to_hosting_worker(self):
        model = VertexCentricCostModel(processors=4)
        model.add_work(model.worker_for("vertex"), 7)
        assert sum(model.worker_work) == 7
        assert model.worker_work[model.worker_for("vertex")] == 7

    def test_simulated_seconds_decrease_with_processors(self):
        def build(processors: int) -> VertexCentricCostModel:
            model = VertexCentricCostModel(processors=processors)
            for index in range(1000):
                model.add_work(model.worker_for(f"v{index}"), 50)
            model.record_message_sent(5000)
            return model

        assert build(20).simulated_seconds() < build(4).simulated_seconds()

    def test_no_round_overhead(self):
        """Vertex-centric runs pay only a small fixed engine overhead."""
        model = VertexCentricCostModel(processors=4)
        assert model.simulated_seconds() < 1.0

    def test_breakdown_and_setup_work(self):
        model = VertexCentricCostModel(processors=2)
        model.add_setup_work(1000)
        breakdown = model.breakdown()
        assert breakdown["total_seconds"] == pytest.approx(model.simulated_seconds())
        assert model.total_work == 1000

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            VertexCentricCostModel(processors=0)
