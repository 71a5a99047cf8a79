"""No false negatives in the carried state.

Blocking and the pairing filter are necessary conditions: a pair the chase
identifies collides on the signatures of some key, and that key pairs it
(Proposition 9).  So every pair of the fixpoint, computed here by
:func:`reference_fixpoint` (the naive chase of Section 2, memoised by
graph content) with no ``src/`` matcher, must be in the blocked universe
(:meth:`SessionArtifacts.blocked_pairs`) and in every pairing-filtered
candidate set the session holds.  A cold build is
checked, and then every window of a fuzzer that mixes key and non-key
predicates: the carried state — the enumeration re-collided by delta, the
verdicts re-paired only over the window's key ball — is where a missed
partner would hide.

Every window adds a non-key edge between two nodes of the product graph
(so ``Gp`` gains a topology edge under a predicate no key names) and
retypes an entity; one window per example compacts the snapshot.  The
graphs are :func:`fuzz_dataset`'s: 28 entities to start, at most 12 more
added over an example (one per ``add_entity`` draw, at most 3 draws per
window, 4 windows), so :func:`naive_chase` stays around 4 ms per call.

A drawn window may also make an entity that collided with none of its type
start colliding (:func:`collide_a_lonely_entity`): it takes on the rows of
one that collides, so the chase identifies the two, and a rebase that skips
it (a bug the blocking rebase once had) loses that pair from the blocked
universe.  The property must reach that transition (:data:`STARTS_COLLIDING`).
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchSession
from repro.core.graph import Graph

from tests.matching.test_incremental_equivalence import apply_random_mutation, fuzz_dataset
from tests.naive_semantics import reference_fixpoint
from tests.properties.test_rebase_properties import STARTS_COLLIDING, collide_a_lonely_entity

#: the run shapes each window re-runs: the product graph's flavour and the
#: reduced one, both blocked
SHAPES = ("EMOptVC", "EMOptMR")


def assert_no_false_negatives(session: MatchSession) -> None:
    arts = session._artifacts
    expected = reference_fixpoint(arts.graph, arts.keys)
    blocked, _stats = arts.blocked_pairs("auto")
    assert expected <= set(blocked), expected - set(blocked)
    filtered = [
        (flavour, cached)
        for flavour, cached in arts.cached("candidates").items()
        if cached.pair_supports is not None
    ]
    assert filtered
    for flavour, cached in filtered:
        assert expected <= set(cached.pairs), (flavour, expected - set(cached.pairs))


def non_key_edge_between_product_nodes(session: MatchSession, window: int) -> None:
    """Link two entity-pair nodes of ``Gp`` component-wise under a fresh
    predicate no key names: ``(s1, s2) -> (o1, o2)`` becomes a ``Gp`` edge.
    (A ``Gp`` the fuzzer emptied has none: two entities are linked then.)"""
    graph = session.graph
    product_graph = session._artifacts.product_graph(filtered=True, blocking="auto")
    entity_pairs = sorted(
        node
        for node in product_graph.nodes()
        if all(isinstance(part, str) and graph.has_entity(part) for part in node)
    ) or [tuple(sorted(graph.entity_ids())[:2])]
    (s1, s2), (o1, o2) = entity_pairs[window % len(entity_pairs)], entity_pairs[-1]
    graph.add_edge(s1, f"unkeyed_{window}", o1)
    graph.add_edge(s2, f"unkeyed_{window}", o2)


@pytest.mark.reaches(STARTS_COLLIDING, 10)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    windows=st.lists(
        st.tuples(st.integers(min_value=1, max_value=3), st.booleans()), min_size=4, max_size=4
    ),
    compact_at=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_the_fixpoint_survives_blocking_and_pairing_after_every_window(
    seed, windows, compact_at
):
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    for shape in SHAPES:
        session.run(shape)
    assert_no_false_negatives(session)
    rng = random.Random(seed)
    arts = session._artifacts
    for window, (mutations, collide) in enumerate(windows):
        non_key_edge_between_product_nodes(session, window)
        for _ in range(mutations):
            apply_random_mutation(graph, rng)
        entities = sorted(graph.entity_ids())
        graph.retype_entity(rng.choice(entities), rng.choice(sorted(graph.types())))
        if collide:
            collide_a_lonely_entity(graph, keys, rng)
        compacting = window == compact_at
        if compacting:
            # a write after every read above, so the session's run publishes
            # this window, and every row counts past the threshold
            graph.add_value(rng.choice(entities), "tag", f"w{window}")
        compactions = arts.cache_info().snapshot_compactions
        limit = 0.0 if compacting else Graph.SNAPSHOT_PATCH_MAX_FRACTION
        with mock.patch.object(Graph, "SNAPSHOT_PATCH_MAX_FRACTION", limit):
            for shape in SHAPES:
                result = session.run(shape, incremental=True)
        if compacting:
            assert arts.cache_info().snapshot_compactions == compactions + 1
        assert result.eq.pairs() == reference_fixpoint(graph, keys)
        assert_no_false_negatives(session)
