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
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchSession
from repro.core.key import KeySet
from repro.matching.blocking import BlockingIndex, compile_blocking_schemes
from repro.matching.candidates import build_filtered_candidates, dependency_map
from repro.matching.product_graph import ProductGraph

from tests.matching.test_incremental_equivalence import apply_random_mutation, fuzz_dataset
from tests.naive_semantics import reference_fixpoint, reference_signature

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


def _fewer_keys(keys: KeySet, drop: int) -> KeySet:
    kept = list(keys)
    del kept[drop % len(kept)]
    return KeySet(kept)


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    windows=st.lists(st.integers(min_value=1, max_value=3), min_size=3, max_size=6),
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
    for window, mutations in enumerate(windows):
        for _ in range(mutations):
            apply_random_mutation(graph, rng)
        if window == compact_at % len(windows):
            # every row counts past the threshold: this window recompiles
            # (and it touches something, or there is nothing to refresh)
            graph.add_value(rng.choice(sorted(graph.entity_ids())), "tag", f"w{window}")
            arts.SNAPSHOT_PATCH_MAX_FRACTION = 0.0
        if window == rekey_at % len(windows):
            keys = _fewer_keys(dataset.keys, seed)
            session.with_keys(keys)
        compactions = arts.cache_info().snapshot_compactions
        for shape in SHAPES:
            result = session.run(shape, incremental=True)
        if window == compact_at % len(windows):
            assert arts.cache_info().snapshot_compactions == compactions + 1
            del arts.SNAPSHOT_PATCH_MAX_FRACTION
        assert result.eq.pairs() == reference_fixpoint(graph, keys)
        assert_carried_equals_applied_from_empty(session)
