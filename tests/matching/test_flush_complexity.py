"""Complexity guards for the flush path: counts, never clocks.

An ingest window pays for its delta.  It may not pay for the quadratic
candidate universe ``L`` (which a blocked session never materialises), nor
for the blocked ``L``, the signature index or the product graph, nor
recount the product graph's edges from scratch.  These tests wrap the
primitives such a regression would go through — ``candidate_pairs``,
``itertools.combinations`` inside the delta planner and the blocking layer,
the signature walk, the pairing fixpoint, the product graph's row and pair
registrations, ``objects()`` under ``ProductGraph.count_edges``, the vertex
states a run creates, the ``Eq`` a window copies, merges into or walks, the
candidate pairs the dependency rebase reads — in call counters, and bound
the counts by the work the window reports or require them to be the same
on a graph four times the size.
"""

from __future__ import annotations

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.session import MatchSession
from repro.core.chase import candidate_pairs
from repro.core.equivalence import EquivalenceFork, EquivalenceRelation, canonical_pair
from repro.core.graph import Graph
from repro.core.parser import parse_keys
from repro.core.triples import Literal, Triple, is_entity_ref
from repro.datasets.synthetic import synthetic_dataset
from repro.matching import blocking as blocking_module
from repro.matching import candidates as candidates_module
from repro.matching import incremental as incremental_module
from repro.matching import product_graph as product_graph_module
from repro.matching.artifacts import SessionArtifacts
from repro.matching.backend import EntityMatcher
from repro.matching.candidates import CandidateSet
from repro.matching.incremental import IncrementalState
from repro.matching.product_graph import ProductGraph
from repro.storage import SnapshotNeighborhoodIndex
from repro.storage.snapshot import GraphSnapshot

from test_incremental_equivalence import apply_random_mutation, fuzz_dataset
from tests.naive_semantics import reference_fixpoint

#: the modules (their packages re-export functions under the same names)
chase_module = importlib.import_module("repro.core.chase")
em_vc_module = importlib.import_module("repro.matching.em_vc")


def _scale4_dataset(scale: int = 4):
    """The spine's ``hot`` graph: 576 entities, 40 to a keyed type (or its
    *scale* twin, 144 entities a scale)."""
    dataset = synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8, scale=scale, seed=1
    )
    assert dataset.graph.num_entities == 144 * scale
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

    with monkeypatch.context() as patch:
        patch.setattr(chase_module, "candidate_pairs", forbidden)
        patch.setattr(candidates_module, "candidate_pairs", forbidden)
        counting = _CountingItertools()
        patch.setattr(incremental_module, "itertools", counting)
        for delta in _blocked_stream(session):
            assert delta.mode == "incremental", delta
            assert delta.pairs_rechecked + delta.pairs_skipped < one_bucket
    # the only combinations the planner takes are over equivalence classes
    assert counting.sizes and max(counting.sizes) <= largest_class + 1


def test_the_blocked_stream_lands_on_the_fixpoint():
    """The stream above, on the 144-entity twin of ``hot``: the naive chase
    of the 576-entity graph takes ~2.4 s, of the twin ~0.13 s."""
    dataset = _scale4_dataset(scale=1)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    session.run()
    for _ in _blocked_stream(session):
        pass
    assert session.run().pairs() == reference_fixpoint(graph, keys)


def _blocked_stream(session: MatchSession):
    """Three windows of key-free tags and key-relevant edits (matches appear
    and vanish), each rerun: yields each window's delta."""
    graph = session.graph
    rng = random.Random(3)
    entities = sorted(graph.entity_ids())
    names = sorted(
        t.obj.value for t in graph.triples() if t.predicate == "name_of"
    )
    for window in range(3):
        for n in range(6):
            graph.add_value(rng.choice(entities), "tag", f"w{window}_{n}")
        graph.set_value(rng.choice(entities), "name_of", rng.choice(names))
        graph.retype_entity(rng.choice(entities), rng.choice(sorted(graph.types())))
        session.rerun()
        yield session.last_delta()


@pytest.mark.parametrize("blocking", ["auto", "off"])
def test_a_window_takes_two_radius_balls_and_sweeps_no_cached_neighbourhood(
    blocking, monkeypatch
):
    """Two affected sets per journal window, one BFS each: the eviction and
    the row rebases read the touched nodes' radius ball, the blocking-index
    rebase, the pair re-registrations and the plan read the key-roots' one,
    and nothing walks the cached neighbourhoods."""
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
        assert calls == {"balls": 2, "sweeps": 0}, (window, calls)
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


# --------------------------------------------------------------------------- #
# a window's work does not grow with the graph
# --------------------------------------------------------------------------- #


def _relabelled(graph: Graph, prefix: str):
    """*graph*'s entities and triples with every entity id and every value
    renamed under *prefix*: a copy that shares no node with the original."""

    def node(value):
        if is_entity_ref(value):
            return prefix + value
        return Literal(f"{prefix}{value.value}")

    entities = [(prefix + e.eid, e.etype) for e in graph.entities()]
    triples = [
        Triple(prefix + t.subject, t.predicate, node(t.obj)) for t in graph.triples()
    ]
    return entities, triples


def _four_times(graph: Graph) -> Graph:
    """*graph* beside three relabelled copies of itself: four times the
    entities, every one of *graph*'s among them, and no node shared."""
    grown = graph.copy()
    for copy in range(1, 4):
        entities, triples = _relabelled(graph, f"far{copy}_")
        for eid, etype in entities:
            grown.add_entity(eid, etype)
        for triple in triples:
            grown.add_triple(triple)
    return grown


def _windows(graph: Graph, keys, count: int) -> list:
    """*count* journal windows over *graph*'s own entities: new values,
    key-relevant renames (matches appear and vanish; one entity of a pair no
    other pair depends on loses its name, so a class drops in every window
    and none is answered ``"reused"``), a new entity wired to an old one,
    and a retype."""
    rng = random.Random(5)
    entities = sorted(graph.entity_ids())
    names = sorted(t.obj.value for t in graph.triples() if t.predicate == "name_of")
    types = sorted(graph.types())
    prerequisite_types = {t for key in keys for t in key.depends_on_types()}
    unnamed = list(dict.fromkeys(
        e1 for e1, _ in sorted(reference_fixpoint(graph, keys))
        if graph.entity_type(e1) not in prerequisite_types
    ))
    windows = []
    for window in range(count):
        ops = [("add_value", rng.choice(entities), "tag", f"w{window}_{n}") for n in range(6)]
        ops.append(("set_value", rng.choice(entities), "name_of", rng.choice(names)))
        ops.append(("set_value", unnamed[window], "name_of", f"unnamed_{window}"))
        twin = rng.choice(entities)
        ops.append(("add_entity", f"new_{window}", graph.entity_type(twin)))
        ops.append(("add_value", f"new_{window}", "name_of", rng.choice(names)))
        ops.append(("add_edge", twin, "noise_0", f"new_{window}"))
        ops.append(("retype_entity", rng.choice(entities), rng.choice(types)))
        windows.append(ops)
    return windows


class _WorkCounts:
    """Per-element counts of the work a flush does, by primitive."""

    def __init__(self, monkeypatch) -> None:
        self.counts = dict.fromkeys(
            (
                "signature entries",
                "pairing relations",
                "registered pairs",
                "forward rows",
                "was_candidate",
                "vertex states",
            ),
            0,
        )
        self.combinations = _CountingItertools()
        monkeypatch.setattr(blocking_module, "itertools", self.combinations)
        walk = blocking_module._entity_signatures

        def signatures(snapshot, entities, path):
            entities = list(entities)
            self.counts["signature entries"] += len(entities)
            return walk(snapshot, entities, path)

        monkeypatch.setattr(blocking_module, "_entity_signatures", signatures)
        pairing = incremental_module.pairing_relation

        def relation(*args):
            self.counts["pairing relations"] += 1
            return pairing(*args)

        for module in (incremental_module, product_graph_module):
            monkeypatch.setattr(module, "pairing_relation", relation)
        register = ProductGraph._register_pair

        def registered(graph, pair, contributed):
            self.counts["registered pairs"] += 1
            return register(graph, pair, contributed)

        monkeypatch.setattr(ProductGraph, "_register_pair", registered)
        row = ProductGraph._forward_row

        def forward_row(graph, node):
            if node not in graph._forward:
                self.counts["forward rows"] += 1
            return row(graph, node)

        monkeypatch.setattr(ProductGraph, "_forward_row", forward_row)
        was_candidate = IncrementalState.was_candidate

        def asked(state, pair):
            self.counts["was_candidate"] += 1
            return was_candidate(state, pair)

        monkeypatch.setattr(IncrementalState, "was_candidate", asked)
        state = em_vc_module.PairState

        def made(*args, **kwargs):
            self.counts["vertex states"] += 1
            return state(*args, **kwargs)

        monkeypatch.setattr(em_vc_module, "PairState", made)

        self._count_fixpoint_work(monkeypatch)
        self._count_dependency_scans(monkeypatch)

    def _count_fixpoint_work(self, monkeypatch) -> None:
        """What a window may not pay for the fixpoint it starts from: a copy
        of ``Eq``, a replay of its merges, a walk over its classes."""
        self.counts.update({"Eq entries copied": 0, "Eq merges": 0, "classes walked": 0})

        def copied(copy):
            def counted(eq):
                self.counts["Eq entries copied"] += sum(1 for _ in eq.members())
                return copy(eq)
            return counted

        def merged(merge):
            def counted(eq, e1, e2):
                self.counts["Eq merges"] += 1
                return merge(eq, e1, e2)
            return counted

        def walked(classes):
            def counted(eq):
                found = classes(eq)
                self.counts["classes walked"] += len(found)
                return found
            return counted

        for relation in (EquivalenceRelation, EquivalenceFork):
            for name, wrap in (
                ("copy", copied), ("merge", merged), ("nontrivial_classes", walked)
            ):
                monkeypatch.setattr(relation, name, wrap(vars(relation)[name]))

    def _count_dependency_scans(self, monkeypatch) -> None:
        """The candidate pairs the dependency rebase and the extras' probe
        read: off a per-entity index, or in a pass over ``L`` itself."""
        self.counts["dependency pairs scanned"] = 0
        touching = CandidateSet.pairs_touching

        def read(candidates, entities):
            found = touching(candidates, entities)
            self.counts["dependency pairs scanned"] += len(found)
            return found

        monkeypatch.setattr(CandidateSet, "pairs_touching", read)
        counts = self.counts

        class CountedPairs(list):
            def __iter__(self):
                counts["dependency pairs scanned"] += len(self)
                return super().__iter__()

        def passes_counted(function, at):
            def counted(*args):
                candidates = args[at]
                pairs = candidates.pairs
                candidates.pairs = CountedPairs(pairs)
                try:
                    return function(*args)
                finally:
                    candidates.pairs = pairs
            return counted

        monkeypatch.setattr(
            incremental_module.DependencyArtifact, "rebased",
            passes_counted(incremental_module.DependencyArtifact.rebased, 2),
        )
        monkeypatch.setattr(
            incremental_module, "extra_dependency_edges",
            passes_counted(incremental_module.extra_dependency_edges, 2),
        )

    def snapshot(self) -> dict:
        return {**self.counts, "combinations": list(self.combinations.sizes)}


def _flush_work(graph: Graph, keys, windows, monkeypatch):
    """Warm a blocked EMOptVC session up with the first window, then count
    the work of the others; returns (counts, affected-set sizes: the ball,
    the key-roots and the key ball of each window)."""
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    session.run()
    affected = []
    refresh = SessionArtifacts.refresh

    def recorded(artifacts):
        found = refresh(artifacts)
        affected.append((len(found.ball), len(found.key_roots), len(found.key_ball)))
        return found

    def apply(ops):
        for op, *args in ops:
            getattr(graph, op)(*args)

    apply(windows[0])
    session.rerun()  # the first rebase builds the carried indexes
    compactions = session.cache_info().snapshot_compactions
    with monkeypatch.context() as patch:
        patch.setattr(SessionArtifacts, "refresh", recorded)
        work = _WorkCounts(patch)
        for ops in windows[1:]:
            apply(ops)
            result = session.rerun()
            assert session.last_delta().mode == "incremental"
        counts = work.snapshot()
    assert session.cache_info().snapshot_compactions == compactions
    assert result.pairs() == reference_fixpoint(graph, keys)
    return counts, affected


def test_a_window_costs_the_same_on_a_graph_four_times_the_size(monkeypatch):
    """The 144-entity twin of ``hot`` against four copies of it (576
    entities), so every fixpoint is the naive chase's: ~0.13 s on the twin,
    ~2.4 s on the grown graph."""
    small = _scale4_dataset(scale=1)
    windows = _windows(small.graph, small.keys, 4)
    grown = _four_times(small.graph)
    assert grown.num_entities == 4 * small.graph.num_entities
    small_work, small_affected = _flush_work(
        small.graph.copy(), small.keys, windows, monkeypatch
    )
    grown_work, grown_affected = _flush_work(grown, small.keys, windows, monkeypatch)
    assert small_affected == grown_affected
    # every window holds key-relevant edits, so the guard counts real work
    assert all(key_roots for _ball, key_roots, _key_ball in small_affected)
    for name in (
        "signature entries", "pairing relations", "registered pairs", "was_candidate",
        "vertex states", "Eq merges", "dependency pairs scanned",
    ):
        assert small_work[name] > 0, name
    # the fixpoint a window starts from is forked, never copied, replayed
    # or walked: |Eq| is four times larger on the grown graph
    assert small_work["Eq entries copied"] == small_work["classes walked"] == 0
    assert grown_work == small_work


@pytest.mark.parametrize("blocking", ["auto", "off"])
def test_a_window_of_non_key_values_is_answered_reused_with_no_work(
    blocking, monkeypatch
):
    """A window whose only edit is a value under a predicate no key names,
    on an entity of an identified candidate pair, reaches no key triple: it
    has no key-root, so it is answered ``"reused"`` with no pairing
    relation computed, no signature rewritten and no solve dispatched.  On
    the 144-entity twin of ``hot``, so the fixpoint is the naive chase's
    (~0.13 s; ~2.4 s on the 576-entity graph)."""
    dataset = _scale4_dataset(scale=1)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking=blocking)
    held = session.run()
    entity = sorted(held.pairs())[0][0]
    with monkeypatch.context() as patch:
        work = _WorkCounts(patch)
        solves = []
        solve = EntityMatcher.run
        patch.setattr(EntityMatcher, "run", lambda matcher: solves.append(1) or solve(matcher))
        graph.add_value(entity, "untracked_tag", "a value no key reads")
        result = session.rerun()
        counts = work.snapshot()
    delta = session.last_delta()
    assert delta.mode == "reused", delta
    assert (delta.pairs_rechecked, delta.dropped_classes) == (0, 0), delta
    assert result is held
    assert solves == []
    assert counts["pairing relations"] == counts["signature entries"] == 0, counts
    assert result.pairs() == reference_fixpoint(graph, keys)
