"""Complexity guards for the flush path: counts, never clocks.

An ingest window pays for its delta.  It may not pay for the quadratic
candidate universe ``L`` (which a blocked session never materialises), nor
recount the product graph's edges from scratch.  These tests wrap the
primitives such a regression would go through — ``candidate_pairs``,
``itertools.combinations`` inside the delta planner, ``objects()`` under
``ProductGraph.count_edges`` — in call counters and bound the counts by the
work the window reports.
"""

from __future__ import annotations

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import MatchSession
from repro.core.chase import candidate_pairs, chase
from repro.core.equivalence import EquivalenceRelation, canonical_pair
from repro.core.graph import Graph
from repro.core.parser import parse_keys
from repro.core.triples import is_entity_ref
from repro.datasets.synthetic import synthetic_dataset
from repro.matching import candidates as candidates_module
from repro.matching import incremental as incremental_module
from repro.matching.artifacts import SessionArtifacts
from repro.matching.incremental import IncrementalState
from repro.matching.product_graph import ProductGraph
from repro.storage import SnapshotNeighborhoodIndex
from repro.storage.snapshot import GraphSnapshot

from test_incremental_equivalence import apply_random_mutation, fuzz_dataset

#: the module (``repro.core`` re-exports the function under the same name)
chase_module = importlib.import_module("repro.core.chase")


def _scale4_dataset():
    """The spine's ``hot`` graph: 576 entities, 40 to a keyed type."""
    dataset = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8, scale=4, seed=1
    )
    assert dataset.graph.num_entities == 576
    return dataset


class _CountingItertools:
    """``itertools`` with the input size of every ``combinations`` recorded."""

    def __init__(self):
        self.sizes = []

    def combinations(self, iterable, r):
        items = list(iterable)
        self.sizes.append(len(items))
        return itertools.combinations(items, r)

    def __getattr__(self, name):
        return getattr(itertools, name)


def test_blocked_stream_never_enumerates_the_quadratic_universe(monkeypatch):
    dataset = _scale4_dataset()
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    session.run()
    smallest_bucket = min(
        len(graph.entities_of_type(etype)) for etype in keys.target_types()
    )
    largest_class = max(len(c) for c in session.run().eq.nontrivial_classes())
    assert largest_class < smallest_bucket
    one_bucket = smallest_bucket * (smallest_bucket - 1) // 2

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the flush enumerated the quadratic universe L")

    rng = random.Random(3)
    entities = sorted(graph.entity_ids())
    names = sorted(
        t.obj.value for t in graph.triples() if t.predicate == "name_of"
    )
    with monkeypatch.context() as patch:
        patch.setattr(chase_module, "candidate_pairs", forbidden)
        patch.setattr(candidates_module, "candidate_pairs", forbidden)
        counting = _CountingItertools()
        patch.setattr(incremental_module, "itertools", counting)
        for window in range(3):
            for n in range(6):
                graph.add_value(rng.choice(entities), "tag", f"w{window}_{n}")
            # key-relevant edits: matches appear and vanish
            graph.set_value(rng.choice(entities), "name_of", rng.choice(names))
            graph.retype_entity(rng.choice(entities), rng.choice(sorted(graph.types())))
            result = session.rerun()
            delta = session.last_delta()
            assert delta.mode == "incremental", delta
            assert delta.pairs_rechecked + delta.pairs_skipped < one_bucket
    # the only combinations the planner takes are over equivalence classes
    assert counting.sizes and max(counting.sizes) <= largest_class + 1
    assert result.pairs() == chase(graph, keys, blocking="auto").pairs()


@pytest.mark.parametrize("blocking", ["auto", "off"])
def test_a_window_takes_one_radius_ball_and_sweeps_no_cached_neighbourhood(
    blocking, monkeypatch
):
    """One affected set per journal window: the blocking-index rebase, the
    eviction, the parked slots and the plan all read the one radius ball
    ``refresh()`` takes, and nothing walks the cached neighbourhoods."""
    dataset = fuzz_dataset(7)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking=blocking)
    session.run()
    calls = {}
    ball = SessionArtifacts._touched_ball
    cached_entities = SnapshotNeighborhoodIndex.cached_entities

    def counted_ball(self, touched):
        calls["balls"] += 1
        return ball(self, touched)

    def counted_sweep(self):
        calls["sweeps"] += 1
        return cached_entities(self)

    monkeypatch.setattr(SessionArtifacts, "_touched_ball", counted_ball)
    monkeypatch.setattr(SnapshotNeighborhoodIndex, "cached_entities", counted_sweep)
    rng = random.Random(7)
    for window in range(4):
        for _ in range(3):
            apply_random_mutation(graph, rng)
        calls.update(balls=0, sweeps=0)
        session.rerun()
        assert session.last_delta().mode in ("incremental", "reused")
        assert calls == {"balls": 1, "sweeps": 0}, (window, calls)
    rebases = session.cache_info().blocking_index_rebases
    assert rebases == (4 if blocking == "auto" else 0)


IDS = [f"n{i}" for i in range(7)]
KEYS = parse_keys(
    """
    key KA for A:
      x -[name]-> name*
    key KB for B:
      x -[name]-> name*
    """
)
#: ``None``: the entity is absent from that side of the delta
_typed = st.fixed_dictionaries(
    {eid: st.sampled_from([None, "A", "B", "C"]) for eid in IDS}
)


@given(old=_typed, new=_typed)
@settings(max_examples=60, deadline=None)
def test_was_candidate_is_membership_in_the_old_universe(old, new):
    """Over added (absent → typed), removed (typed → absent) and retyped
    entities, for every pair either side of the delta could enumerate."""

    def build(types):
        graph = Graph()
        for eid, etype in types.items():
            if etype is not None:
                graph.add_entity(eid, etype)
        return graph

    old_snapshot = GraphSnapshot.build(build(old))
    state = IncrementalState(
        version=0, eq=EquivalenceRelation(), snapshot=old_snapshot, keys=KEYS
    )
    universe = frozenset(candidate_pairs(old_snapshot, KEYS))
    assert set(candidate_pairs(build(new), KEYS)) <= {
        canonical_pair(a, b) for a, b in itertools.combinations(IDS, 2)
    }
    for a, b in itertools.combinations(IDS, 2):
        pair = canonical_pair(a, b)
        assert state.was_candidate(pair) == (pair in universe), pair
    for gone in ("candidates", "result", "config"):
        assert not hasattr(state, gone)


def _out_triples_of_pair_nodes(product_graph, snapshot):
    return sum(
        len(snapshot.out_triples(s1))
        for s1, s2 in product_graph.nodes()
        if is_entity_ref(s1) and is_entity_ref(s2)
    )


@pytest.mark.parametrize("seed", [2, 11, 29, 47])
def test_rebased_edge_count_equals_a_fresh_count_and_reads_rows_not_predicates(
    seed, monkeypatch
):
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    session.run()
    arts = session._artifacts
    (flavour,) = arts.cached("product_graph")
    filtered, reduce_neighborhoods, blocked = flavour
    request = dict(
        filtered=filtered,
        reduce_neighborhoods=reduce_neighborhoods,
        blocking="auto" if blocked else "off",
    )

    calls = {"n": 0}
    original = GraphSnapshot.objects

    def counted(self, subject, predicate):
        calls["n"] += 1
        return original(self, subject, predicate)

    monkeypatch.setattr(GraphSnapshot, "objects", counted)

    def reads(product_graph):
        calls["n"] = 0
        count = product_graph.count_edges()
        return count, calls["n"]

    rng = random.Random(seed)
    rebased_reads = fresh_reads = 0
    for _ in range(4):
        for _ in range(rng.randint(1, 3)):
            apply_random_mutation(graph, rng)
        arts.refresh()
        rebased = arts.product_graph(**request)
        assert arts.cache_info().product_graph_builds == 1  # rebased, not rebuilt
        snapshot = arts.snapshot()
        fresh = ProductGraph(snapshot, keys, arts.candidates(**request))
        bound = 2 * _out_triples_of_pair_nodes(fresh, snapshot)

        fresh_count, fresh_calls = reads(fresh)
        rebased_count, rebased_calls = reads(rebased)
        assert rebased_count == fresh_count
        assert rebased_calls <= fresh_calls <= bound
        assert rebased._forward == fresh._forward
        rebased_reads += rebased_calls
        fresh_reads += fresh_calls
    # untouched nodes carried their counts: the stream read fewer rows
    assert rebased_reads < fresh_reads
