"""Complexity guards for the solve path: counts, never clocks.

A vertex-centric run pays per message and a chase per check; neither may pay
per entity of ``G`` or per triple of ``Q`` on each of them.  These tests wrap
the two primitives such a regression would go through —
``EquivalenceRelation.find`` and ``GraphPattern._instantiation_order`` — in
call counters and bound the counts by the work the run reports.
"""

from __future__ import annotations

import pytest

from repro.api.session import MatchSession
from repro.core.equivalence import EquivalenceRelation
from repro.core.pattern import GraphPattern
from repro.datasets.synthetic import synthetic_dataset

#: ``find`` calls allowed per processed message.  A message makes at most two
#: per feasibility test of an entity variable, a confirmation a handful more;
#: measured at 0.65 per message on the fixture below.  Scanning every entity
#: on each confirmation instead costs 37 per message there.
FINDS_PER_MESSAGE = 2


def _count_calls(monkeypatch, cls, name):
    """Wrap ``cls.name`` so that every call is counted; returns the tally."""
    calls = {"n": 0}
    original = getattr(cls, name)

    def counted(self, *args):
        calls["n"] += 1
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _deep_dataset():
    """Chains of five recursive keys over 540 entities (60 planted duplicates)."""
    dataset = synthetic_dataset(
        num_keys=10, chain_length=5, radius=2, entities_per_type=8, scale=3, seed=5
    )
    assert dataset.graph.num_entities >= 500
    return dataset


@pytest.mark.parametrize("algorithm", ["EMVC", "EMOptVC"])
def test_vertex_centric_run_calls_find_per_message_not_per_entity(monkeypatch, algorithm):
    dataset = _deep_dataset()
    finds = _count_calls(monkeypatch, EquivalenceRelation, "find")
    result = MatchSession(dataset.graph).with_keys(dataset.keys).run(algorithm)

    assert result.pairs() == dataset.planted_pairs
    confirmations = result.stats.directly_identified
    assert confirmations >= 50  # each one walks the merged class
    assert finds["n"] <= FINDS_PER_MESSAGE * result.stats.messages_processed
    assert finds["n"] < confirmations * dataset.graph.num_entities / 10


def test_chase_never_derives_an_instantiation_order(monkeypatch):
    orders = _count_calls(monkeypatch, GraphPattern, "_instantiation_order")
    dataset = _deep_dataset()
    compiled = orders["n"]
    assert compiled == len(dataset.keys)  # once per key, when the pattern is built

    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    for _ in range(2):
        result = session.run("chase")
        assert result.stats.checks >= 100
    assert orders["n"] == compiled


def test_incident_triples_are_read_as_stored():
    for key in _deep_dataset().keys:
        pattern = key.pattern
        for node in pattern.nodes():
            incident = pattern.adjacent_triples(node.name)
            assert incident is pattern.adjacent_triples(node.name)
            assert list(incident) == [
                t for t in pattern.triples if node.name in (t.subject.name, t.obj.name)
            ]
        assert pattern.instantiation_order is pattern.instantiation_order
        assert pattern.instantiation_order[0] == pattern.designated
        assert {n.name for n in pattern.instantiation_order} == pattern.node_names()
