"""Complexity guards for the solve path: counts, never clocks.

A vertex-centric run pays per message and a chase per check; neither may pay
per entity of ``G`` or per triple of ``Q`` on each of them.  These tests wrap
the two primitives such a regression would go through —
``EquivalenceRelation.find`` and ``GraphPattern._instantiation_order`` — in
call counters and bound the counts by the work the run reports.  A MapReduce
run pays per check and per shuffled record: it may not interpret a pattern
per check, copy ``Eq`` per round, nor hash a shuffle key that an earlier run
at the same snapshot placed.
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


@pytest.mark.parametrize("algorithm", ["EMVC", "EMOptVC"])
def test_warm_vertex_centric_run_compiles_no_tour(monkeypatch, algorithm):
    tours = _count_calls(monkeypatch, GraphPattern, "_compile_tour")
    dataset = _deep_dataset()
    assert tours["n"] == len(dataset.keys)  # once per key, when the pattern is built

    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    for _ in range(2):
        result = session.run(algorithm)
        assert result.pairs() == dataset.planted_pairs
    assert tours["n"] == len(dataset.keys)


def test_blocking_index_build_compiles_no_signature_path(monkeypatch):
    from repro.matching.blocking import BlockingIndex
    from repro.storage import GraphSnapshot

    paths = _count_calls(monkeypatch, GraphPattern, "_signature_steps")
    dataset = _deep_dataset()
    assert paths["n"] == len(dataset.keys)

    snapshot = GraphSnapshot.build(dataset.graph)
    for reader in (None, snapshot):
        index = BlockingIndex.build(dataset.graph, dataset.keys, snapshot=reader)
        for key, scheme in zip(dataset.keys, index.schemes):
            assert scheme.paths is key.pattern.signature_paths
    assert paths["n"] == len(dataset.keys)


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


# --------------------------------------------------------------------------- #
# a warm vertex-centric run re-derives nothing that is fixed per key or per Gp
# --------------------------------------------------------------------------- #


def _count_function(monkeypatch, module, name, original=None):
    """Count calls of the module-level *name* as *module*'s code sees it."""
    calls = {"n": 0}
    original = original if original is not None else getattr(module, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted, raising=False)
    return calls


@pytest.mark.parametrize("algorithm", ["EMVC", "EMOptVC"])
def test_second_warm_vertex_centric_run_only_reads_what_the_first_remembered(
    monkeypatch, algorithm
):
    import dataclasses

    from repro.matching import product_graph as product_graph_module
    from repro.matching.product_graph import ProductGraph
    from repro.storage.snapshot import GraphSnapshot
    from repro.vertexcentric import cost_model
    from repro.vertexcentric.engine import VertexContext

    dataset = _deep_dataset()
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    session.run("chase")  # every artifact but the product graph's memory

    hashes = _count_function(monkeypatch, cost_model, "stable_hash")
    replaces = _count_function(monkeypatch, dataclasses, "replace")
    # ``repr`` as the product graph's sorts see it (module global over builtin)
    reprs = _count_function(monkeypatch, product_graph_module, "repr", original=repr)
    contexts = _count_calls(monkeypatch, VertexContext, "__init__")

    # row reads of G made from inside the neighbour functions
    inside = {"depth": 0, "reads": 0}
    for name in ("neighbors", "count_edges"):
        original = getattr(ProductGraph, name)

        def entered(self, *args, _original=original):
            inside["depth"] += 1
            try:
                return _original(self, *args)
            finally:
                inside["depth"] -= 1

        monkeypatch.setattr(ProductGraph, name, entered)
    for name in ("objects", "subjects"):
        original = getattr(GraphSnapshot, name)

        def read(self, *args, _original=original):
            inside["reads"] += 1 if inside["depth"] else 0
            return _original(self, *args)

        monkeypatch.setattr(GraphSnapshot, name, read)

    first = session.run(algorithm)
    assert first.pairs() == dataset.planted_pairs
    assert contexts["n"] == 1  # one context per serial drain, not one per message
    assert hashes["n"] <= first.stats.product_graph_nodes  # once per addressed vertex
    (product_graph,) = session._artifacts.cached("product_graph").values()
    remembered = sum(
        len(found)
        for table in (product_graph._forward, product_graph._backward)
        for row in table.values()
        for found in row.values()
    ) + sum(len(found) for found in product_graph._send_order.values())
    assert reprs["n"] <= remembered  # at most once per remembered list entry
    assert reprs["n"] > 0 or algorithm == "EMVC"  # whose lists here have one entry each
    assert 0 < inside["reads"] <= 2 * first.stats.product_graph_edges + 2 * first.stats.messages_sent
    assert replaces["n"] == 0

    before = dict(hashes=hashes["n"], reprs=reprs["n"], reads=inside["reads"])
    second = session.run(algorithm)
    assert second.stats == first.stats
    assert dict(hashes=hashes["n"], reprs=reprs["n"], reads=inside["reads"]) == before
    assert contexts["n"] == 2 and replaces["n"] == 0


# --------------------------------------------------------------------------- #
# a warm MapReduce run walks compiled plans, copies no Eq and hashes a
# shuffle key once per snapshot
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("algorithm", ["EMMR", "EMOptMR", "EMVF2MR"])
def test_warm_mapreduce_run_interprets_no_pattern_and_hashes_each_key_once(
    monkeypatch, algorithm
):
    from repro.core import eval_guided, matching
    from repro.mapreduce.runtime import MapReduceDriver
    from repro.runtime import partition

    dataset = _deep_dataset()
    graph = dataset.graph
    session = MatchSession(graph).with_keys(dataset.keys)
    tables = []
    run_job = MapReduceDriver.run_job

    def keep_table(self, *args):
        tables.append(self.placement)
        return run_job(self, *args)

    monkeypatch.setattr(MapReduceDriver, "run_job", keep_table)
    session.run(algorithm)  # every artifact the backend reads, the table too
    table = tables[0]

    derived = [
        _count_calls(monkeypatch, GraphPattern, name)
        for name in ("_connected_order", "_instantiation_order", "_compile", "adjacent_triples")
    ]
    hashes = _count_function(monkeypatch, partition, "stable_hash")
    # ``repr`` as the two checks' sorts see it (module global over builtin)
    reprs = [
        _count_function(monkeypatch, module, "repr", original=repr)
        for module in (eval_guided, matching)
    ]
    copies = _count_calls(monkeypatch, EquivalenceRelation, "copy")
    drivers = _track_instances(monkeypatch, MapReduceDriver)

    for _ in (1, 2):
        result = session.run(algorithm)
        assert result.pairs() == dataset.planted_pairs
        assert result.stats.checks >= 100 and result.stats.rounds >= 3
    # every round of every run at this snapshot placed its keys with the
    # first run's table (twice a round: map split, reduce split) and no run
    # after the first hashed one
    assert all(one is table for one in tables)
    assert hashes["n"] == 0
    assert len(table) <= 3 * result.stats.processed_pairs
    assert len(table) < result.stats.shuffled_records
    # reduce tasks fork Eq and mappers read it: no copy per round or task
    assert copies["n"] == 0
    assert [calls["n"] for calls in derived] == [0, 0, 0, 0]
    # this fixture's steps have one candidate (pair) each: nothing to order
    assert [calls["n"] for calls in reprs] == [0, 0]
    assert len(drivers) == 2

    # one journal window patches the snapshot: its interning gets a new table
    graph.add_value(sorted(graph.entity_ids())[0], "window_note", "window-value")
    result = session.run(algorithm)
    assert result.pairs() == dataset.planted_pairs
    window_table = tables[-1]
    assert window_table is not table
    assert all(one is window_table for one in tables[-result.stats.rounds:])
    assert hashes["n"] == len(window_table) > 0  # each key hashed once


# --------------------------------------------------------------------------- #
# a finished run is freed by reference counts alone
# --------------------------------------------------------------------------- #


def _track_instances(monkeypatch, *classes):
    """Weak references to every instance of *classes* constructed from now on."""
    import weakref

    refs = []
    for cls in classes:
        original = cls.__init__

        def tracked(self, *args, _original=original, **kwargs):
            refs.append((type(self).__name__, weakref.ref(self)))
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", tracked)
    return refs


@pytest.mark.parametrize("algorithm", ["EMVC", "EMOptVC"])
def test_a_finished_vertex_centric_run_leaves_no_cyclic_garbage(monkeypatch, algorithm):
    """The spine pauses the collector inside a timed repeat and an ingest
    stream runs one window after another: an ``engine -> context -> engine``
    cycle would keep every finished run's vertex table alive until the next
    collection (seen as +14 % peak RSS on a prototype)."""
    import gc

    from repro.matching.eval_vc import EvalVCProgram
    from repro.vertexcentric import AsyncScheduler, VertexCentricEngine, VertexContext

    dataset = synthetic_dataset(
        num_keys=4, chain_length=2, radius=2, entities_per_type=4, scale=2, seed=3
    )
    graph = dataset.graph
    session = MatchSession(graph).with_keys(dataset.keys).using(algorithm, blocking="auto")
    session.run()  # build the artifacts outside the guarded region
    refs = _track_instances(
        monkeypatch, VertexCentricEngine, EvalVCProgram, AsyncScheduler, VertexContext
    )

    def assert_all_dead(expected_kinds):
        assert {kind for kind, _ in refs} == expected_kinds
        alive = [kind for kind, ref in refs if ref() is not None]
        assert alive == []
        refs.clear()

    kinds = {"VertexCentricEngine", "EvalVCProgram", "AsyncScheduler", "VertexContext"}
    gc.collect()
    gc.disable()
    try:
        result = session.run()  # only the EMResult is kept
        assert_all_dead(kinds)

        # one SessionArtifacts-driven window: a new duplicate of an entity
        twin = sorted(dataset.planted_pairs)[0][0]
        graph.add_entity("late_twin", graph.entity_type(twin))
        for triple in list(graph.out_triples(twin)):
            graph.add_triple(triple._replace(subject="late_twin"))
        window = session.rerun()
        assert session.last_delta().mode == "incremental"
        assert_all_dead(kinds)
    finally:
        gc.enable()
    assert (twin, "late_twin") in window.pairs() and result.pairs() < window.pairs()
