"""Carried equals applied from empty, after every journal window.

A session carries its blocked enumeration, signature index, filtered
candidate sets, dependency rows and product graph from one graph version to
the next by delta.  Each artifact has one construction rule, and a cold
build is that rule applied to the empty artifact with every keyed entity
affected, so comparing a carried artifact with a cold one over the new
snapshot tests the locality claim: a window's ball is all a carried
artifact needs to redo.  This property fuzzes journal windows over a
blocked session — plain windows, one window that compacts the snapshot (a
new id lineage, so the blocking state is rebuilt), and one key-set change
through ``with_keys`` — and after every window compares each cached
artifact with a cold one: the enumeration pair for pair and in order, the
candidate verdicts, the dependency rows, and the product graph's nodes,
forward rows and edge count.  Two checks share no code with that rule: the
blocked pairs equal a naive enumeration over :func:`reference_signature`
walks, and every run's ``Eq`` equals :func:`reference_fixpoint`.  The
graphs are :func:`fuzz_dataset`'s (28 entities to start, a few more after
the windows), so one example costs a few tens of milliseconds.

A drawn window may end with :func:`collide_a_lonely_entity`: an entity that
collides with no entity of its type takes on the rows of one that does, so
it starts colliding.  That is the transition the blocking rebase once got
wrong (it rewrote only the affected entities that collided before), and
the property must reach it (:data:`STARTS_COLLIDING`).

A rebase never changes what it started from: since a run's seed and the
in-flight readers hold the artifacts of the version they read, every
window first takes a deep copy of the contents of the cached artifacts
(:func:`contents`) and afterwards compares the same objects with it.  That
check exists for the pair tables' copy-on-write edits, so the property
must reach a window that edits a type list the pre-window table holds
(:data:`EDITS_A_HELD_LIST`).
"""

from __future__ import annotations

import copy
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchSession
from repro.core.graph import Graph
from repro.core.key import KeySet
from repro.matching.blocking import BlockingIndex, compile_blocking_schemes
from repro.matching.candidates import build_filtered_candidates, dependency_map
from repro.matching.pair_table import PairTable
from repro.matching.product_graph import ProductGraph

from tests.matching.test_incremental_equivalence import apply_random_mutation, fuzz_dataset
from tests.naive_semantics import reference_fixpoint, reference_signature
from tests.reach import reach

#: the run shapes each window re-runs: the product graph's flavour
#: (EMOptVC) and the reduced one (EMOptMR), both blocked
SHAPES = ("EMOptVC", "EMOptMR")


def naive_blocked_pairs(graph, keys) -> list:
    """The blocked enumeration read off its definition: per sorted keyed
    type, its canonically ordered pairs in order, each kept when the type
    falls back (some key of it is uncertified) or when, for some key of it,
    the two entities' signatures intersect on every path."""
    schemes = compile_blocking_schemes(keys)
    kept = []
    for etype in sorted({scheme.target_type for scheme in schemes}):
        mine = [scheme for scheme in schemes if scheme.target_type == etype]
        fallback = not all(scheme.certified for scheme in mine)
        for e1, e2 in itertools.combinations(sorted(graph.entities_of_type(etype)), 2):
            if fallback or any(
                all(
                    reference_signature(graph, e1, path) & reference_signature(graph, e2, path)
                    for path in scheme.paths
                )
                for scheme in mine
            ):
                kept.append((e1, e2))
    return kept


#: the reach target of this module and of ``test_no_false_negatives.py``
STARTS_COLLIDING = "an entity that collided with none of its type starts colliding"


def _collided(graph, keys) -> set:
    return {entity for pair in naive_blocked_pairs(graph, keys) for entity in pair}


def collide_a_lonely_entity(graph, keys, rng: random.Random) -> None:
    """Copy the rows of an entity that collides onto a same-type entity that
    collides with none, and :func:`reach` :data:`STARTS_COLLIDING` when the
    lonely one now collides.  Its signatures then hold the other's on every
    path (the in-rows too when the out-rows are not enough), so the two meet
    on every path of the key the other collides under.  A no-op when no
    keyed type has both."""
    collided = _collided(graph, keys)
    keyed = sorted({key.target_type for key in keys})
    choices = []
    for etype in keyed:
        members = graph.entities_of_type(etype)
        lonely = [e for e in members if e not in collided]
        partners = [e for e in members if e in collided]
        choices.extend((e, partners) for e in lonely if partners)
    if not choices:
        return
    lonely, partners = rng.choice(choices)
    donor = rng.choice(partners)
    for triple in sorted(graph.out_triples(donor), key=repr):
        if triple.obj != lonely:
            graph.add_triple(triple._replace(subject=lonely))
    if lonely not in _collided(graph, keys):  # a key path that starts backward
        for triple in sorted(graph.in_triples(donor), key=repr):
            if triple.subject != lonely:
                graph.add_triple(triple._replace(obj=lonely))
    if lonely in _collided(graph, keys):
        reach(STARTS_COLLIDING)


def assert_carried_equals_applied_from_empty(session: MatchSession) -> None:
    arts = session._artifacts
    graph, keys, snapshot = arts.graph, arts.keys, arts.snapshot()

    pairs, stats = arts.blocked_pairs("auto")
    assert list(pairs) == naive_blocked_pairs(graph, keys)
    fresh_pairs, fresh_stats = BlockingIndex.build(
        graph, keys, snapshot=snapshot
    ).candidate_pairs("auto")
    assert list(pairs) == fresh_pairs
    for name in ("enumerated_pairs", "quadratic_pairs", "certified_types", "fallback_types"):
        assert getattr(stats, name) == getattr(fresh_stats, name), name

    for flavour, cached in arts.cached("candidates").items():
        filtered, reduce_neighborhoods, blocked = flavour
        if not filtered:
            continue
        fresh = build_filtered_candidates(
            graph,
            keys,
            reduce_neighborhoods=reduce_neighborhoods,
            snapshot=snapshot,
            blocking="auto" if blocked else "off",
        )
        assert list(cached.pairs) == list(fresh.pairs), flavour
        assert cached.pair_supports == fresh.pair_supports, flavour
        assert cached.rejected_pairs == fresh.rejected_pairs, flavour
        assert cached.unfiltered_size == fresh.unfiltered_size, flavour
        for pair in cached.pairs:
            for entity in pair:
                assert cached.neighborhoods.nodes(entity) == fresh.neighborhoods.nodes(
                    entity
                ), (flavour, entity)

    for flavour, artifact in arts.cached("dependency_map").items():
        candidates = arts.cached("candidates")[flavour]
        assert artifact.forward == dependency_map(keys, candidates), flavour

    for flavour, product_graph in arts.cached("product_graph").items():
        candidates = arts.cached("candidates")[flavour]
        fresh_graph = ProductGraph(snapshot, keys, candidates)
        assert product_graph._nodes == fresh_graph._nodes, flavour
        assert product_graph.count_edges() == fresh_graph.count_edges(), flavour
        for node, row in product_graph._forward.items():
            assert row == fresh_graph._forward[node], (flavour, node)


#: the reach target of the copy-on-write check
EDITS_A_HELD_LIST = "a window edits a type list the pre-window table holds"


def held_artifacts(session: MatchSession) -> dict:
    """The artifact objects a session's cache holds at one version."""
    arts = session._artifacts
    held = {"blocking": arts._blocking_index, "blocked": arts._blocked_pairs}
    for kind in ("candidates", "dependency_map", "product_graph"):
        held.update({(kind, flavour): found for flavour, found in arts.cached(kind).items()})
    return held


def _table(table: PairTable) -> tuple:
    return table.lists, table.unlisted, table.index()


def contents(held: dict) -> dict:
    """What each of *held*'s objects holds, read off its own containers: the
    blocked enumeration with its pair table, signatures and token maps; the
    filtered candidate sets' pairs, supports, rejected pairs and pair
    table; both directions of the dependency maps; the product graphs'
    rebased tables and forward rows."""
    found = {"blocked": held["blocked"]}
    blocking = held["blocking"]
    if blocking is not None and blocking._enumerated is not None:
        found["blocking"] = (
            _table(blocking._enumerated), blocking._signatures, blocking._tokens
        )
    for name, artifact in held.items():
        kind = name[0]
        if kind == "candidates" and artifact.pair_supports is not None:
            found[name] = (
                artifact.pairs, artifact.pair_supports, artifact.rejected_pairs,
                _table(artifact.table),
            )
        elif kind == "dependency_map":
            found[name] = (artifact.forward, artifact.rows)
        elif kind == "product_graph":
            found[name] = (
                artifact.candidate_nodes(), artifact._nodes, artifact._nodes_by_pair,
                artifact._refs, artifact._pairs_by_entity, artifact._entity_nodes,
                artifact._forward, artifact._dependents,
            )
    return found


def _counting_held_list_edits(edits: list):
    """A :meth:`PairTable.edited` that records, per call, whether it
    changed the content of a type list the table it edits holds."""
    edited = PairTable.edited

    def counted(table, dropped, added, unlisted=()):
        before = {etype: list(kept) for etype, kept in table.lists.items() if kept}
        fresh = edited(table, dropped, added, unlisted)
        edits.append(any(fresh.lists.get(t) != kept for t, kept in before.items()))
        return fresh

    return counted


def _fewer_keys(keys: KeySet, drop: int) -> KeySet:
    kept = list(keys)
    del kept[drop % len(kept)]
    return KeySet(kept)


#: a window: how many random mutations, and whether a lonely entity then
#: starts colliding
windows = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.booleans()), min_size=3, max_size=6
)


@pytest.mark.reaches(STARTS_COLLIDING, 10)
@pytest.mark.reaches(EDITS_A_HELD_LIST, 10)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    windows=windows,
    compact_at=st.integers(min_value=0, max_value=5),
    rekey_at=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_rebased_artifacts_equal_rebuilt_ones_after_every_window(
    seed, windows, compact_at, rekey_at
):
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    for shape in SHAPES:
        session.run(shape)
    rng = random.Random(seed)
    arts = session._artifacts
    for window, (mutations, collide) in enumerate(windows):
        held = held_artifacts(session)
        before = copy.deepcopy(contents(held))
        for _ in range(mutations):
            apply_random_mutation(graph, rng)
        if collide:
            collide_a_lonely_entity(graph, keys, rng)
        if window == compact_at % len(windows):
            # every row counts past the threshold: this window recompiles
            # (and it touches something, or there is nothing to refresh)
            graph.add_value(rng.choice(sorted(graph.entity_ids())), "tag", f"w{window}")
        if window == rekey_at % len(windows):
            keys = _fewer_keys(dataset.keys, seed)
            session.with_keys(keys)
        compactions = arts.cache_info().snapshot_compactions
        compacting = window == compact_at % len(windows)
        limit = 0.0 if compacting else Graph.SNAPSHOT_PATCH_MAX_FRACTION
        edits: list = []
        with mock.patch.object(Graph, "SNAPSHOT_PATCH_MAX_FRACTION", limit), mock.patch.object(
            PairTable, "edited", _counting_held_list_edits(edits)
        ):
            for shape in SHAPES:
                result = session.run(shape, incremental=True)
        if any(edits):
            reach(EDITS_A_HELD_LIST)
        assert contents(held) == before
        if compacting:
            assert arts.cache_info().snapshot_compactions == compactions + 1
        assert result.eq.pairs() == reference_fixpoint(graph, keys)
        assert_carried_equals_applied_from_empty(session)
