"""Property tests of the O(delta) pipeline: patch ≡ rebuild, bit for bit.

Three layers of the delta machinery carry a *bit-identity* contract:

* :meth:`GraphSnapshot.patched` must produce the same interning tables and
  CSR arrays as a from-scratch :meth:`GraphSnapshot.build`, for arbitrary
  journalled mutation sequences (including retypes and removals, which
  reshuffle the canonical entity order);
* the incremental AdHash accumulator behind ``Graph.content_fingerprint``
  must always equal the one-pass :func:`graph_fingerprint` recompute — and
  the fingerprint of any snapshot compiled from the graph;
* every backend riding the patched-snapshot path must produce the same Eq
  as the sequential chase on the mutated graph.

The last class of tests is the blocked-planner acceptance fuzz: on blocked
incremental runs, ``pairs_rechecked`` stays within an independently computed
affected-closure bound (full d-neighbourhood staleness, closed under the
dependency map, plus dropped-class members) — the support-level planner may
only ever *tighten* that set, never exceed it.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ALGORITHMS, MatchSession
from repro.core.chase import candidate_pairs, chase
from repro.core.fingerprint import graph_fingerprint
from repro.core.neighborhood import NeighborhoodIndex
from repro.matching.incremental import (
    DependencyWorklist,
    extra_dependency_edges,
    touched_entity_nodes,
)
from repro.storage.snapshot import GraphSnapshot

# reuse the PR 5 mutation fuzzer verbatim — the whole point is that the
# delta layers survive the exact mutation vocabulary the journal supports
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "matching"))
from test_incremental_equivalence import apply_random_mutation, fuzz_dataset  # noqa: E402

#: every pickled-core slot of a snapshot; the patch path must reproduce each
#: one exactly (``_unchanged_tables`` provenance and lazy decode caches are
#: deliberately excluded — they are never pickled and never read by equality)
_SNAPSHOT_SLOTS = (
    "version",
    "_node_of",
    "_id_of",
    "_num_entities",
    "_etype_of",
    "_type_ranges",
    "_pred_of",
    "_pred_ids",
    "_fwd_offsets",
    "_fwd_preds",
    "_fwd_objs",
    "_bwd_offsets",
    "_bwd_preds",
    "_bwd_subjs",
    "_und_offsets",
    "_und_targets",
    "_vindex_offsets",
    "_vindex_literals",
    "_vindex_subjects",
    "_num_triples",
)


def assert_snapshots_bit_identical(patched: GraphSnapshot, rebuilt: GraphSnapshot) -> None:
    for slot in _SNAPSHOT_SLOTS:
        assert getattr(patched, slot) == getattr(rebuilt, slot), slot


# --------------------------------------------------------------------------- #
# patched snapshots ≡ rebuilt snapshots
# --------------------------------------------------------------------------- #


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rounds=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_patched_snapshot_bit_identical_to_rebuild(seed, rounds):
    """patched(journal window) == build(graph), slot by slot, array by array."""
    dataset = fuzz_dataset(seed)
    graph = dataset.graph
    snapshot = GraphSnapshot.build(graph)
    rng = random.Random(seed)
    for count in rounds:
        base_version = snapshot.version
        for _ in range(count):
            apply_random_mutation(graph, rng)
        touched = graph.touched_since(base_version)
        assert touched is not None
        snapshot = snapshot.patched(graph, touched)
        assert_snapshots_bit_identical(snapshot, GraphSnapshot.build(graph))


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=10, deadline=None)
def test_patched_snapshot_survives_retype_and_removal(seed):
    """The mutations that reshuffle canonical interning order, specifically."""
    dataset = fuzz_dataset(seed)
    graph = dataset.graph
    snapshot = GraphSnapshot.build(graph)
    rng = random.Random(seed)
    entities = sorted(graph.entity_ids())
    types = sorted(graph.types())

    base = snapshot.version
    victim = rng.choice(entities)
    graph.retype_entity(victim, rng.choice(types))
    for triple in sorted(graph.out_triples(rng.choice(entities)), key=repr)[:2]:
        graph.remove_triple(triple)
    snapshot = snapshot.patched(graph, graph.touched_since(base))
    assert_snapshots_bit_identical(snapshot, GraphSnapshot.build(graph))

    # a patched snapshot is itself a valid patch base
    base = snapshot.version
    graph.add_entity(f"patch_{seed % 97}", rng.choice(types))
    snapshot = snapshot.patched(graph, graph.touched_since(base))
    assert_snapshots_bit_identical(snapshot, GraphSnapshot.build(graph))


# --------------------------------------------------------------------------- #
# incremental fingerprint ≡ recompute
# --------------------------------------------------------------------------- #


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    count=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=20, deadline=None)
def test_incremental_fingerprint_equals_recompute(seed, count):
    """The O(1)-per-mutation accumulator never drifts from the full sum."""
    dataset = fuzz_dataset(seed)
    graph = dataset.graph
    rng = random.Random(seed)
    assert graph.content_fingerprint() == graph_fingerprint(graph)
    for _ in range(count):
        apply_random_mutation(graph, rng)
        assert graph.content_fingerprint() == graph_fingerprint(graph)
    # the snapshot compiled from the graph sums to the same digest — the
    # invariant the store's content addressing depends on
    assert graph_fingerprint(GraphSnapshot.build(graph)) == graph.content_fingerprint()


def test_fingerprint_is_order_invariant_and_reversible():
    """Same content, different mutation order: same accumulator value."""
    entities = sorted(fuzz_dataset(7).graph.entity_ids())
    first, last = entities[0], entities[-1]

    one = fuzz_dataset(7).graph
    one.add_edge(first, "fp_a", last)
    one.add_edge(last, "fp_b", first)

    other = fuzz_dataset(7).graph
    other.add_edge(last, "fp_b", first)
    other.add_edge(first, "fp_a", last)
    # a detour through extra content, fully reverted, must cancel exactly
    before = other.content_fingerprint()
    other.add_edge(first, "fp_tmp", last)
    assert other.content_fingerprint() != before
    detour = [t for t in other.out_triples(first) if t.predicate == "fp_tmp"]
    other.remove_triple(detour[0])

    assert one.content_fingerprint() == other.content_fingerprint() == before


# --------------------------------------------------------------------------- #
# six backends, bit-identical on the patched-snapshot path
# --------------------------------------------------------------------------- #


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=6, deadline=None)
def test_all_backends_identical_on_patched_snapshot_path(seed):
    """Every backend rides a *patched* snapshot and still equals the chase."""
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    sessions = {
        backend: MatchSession(graph).with_keys(keys).using(backend)
        for backend in ALGORITHMS
    }
    for session in sessions.values():
        session.run()
    rng = random.Random(seed)
    for _ in range(2):
        apply_random_mutation(graph, rng)
    reference = chase(graph, keys).pairs()
    for backend, session in sessions.items():
        result = session.rerun()
        assert result.eq.pairs() == reference, backend
        info = session.cache_info()
        # a delta that implicates no candidate pair legitimately reuses the
        # previous result without ever refreshing the snapshot
        if session.last_delta().mode != "reused":
            assert info.snapshot_patches >= 1, backend
        assert info.snapshot_builds == 1, backend


# --------------------------------------------------------------------------- #
# blocked planner acceptance: pairs_rechecked within the affected closure
# --------------------------------------------------------------------------- #


def affected_closure_bound(
    *,
    session,
    graph,
    keys,
    touched,
    old_quadratic,
    old_neighborhoods,
    old_supports,
    previous_classes,
    use_supports,
):
    """An independent recomputation of the blocked delta worklist size.

    Marks a blocked candidate pair affected when it is new to the quadratic
    universe or stale under the journal window, closes under the dependency
    map (plus the probed edges of vanished identified pairs), and adds every
    member pair of a previous class touching an implicated entity.

    With ``use_supports=False`` staleness is the classic *d-neighbourhood*
    test for every pair; with ``use_supports=True`` a previously identified
    pair with a recorded pairing support is stale only when the window hit
    the support itself — the affected-*support* closure the planner runs.
    Supports live inside neighbourhoods, so the support bound can only be
    the tighter of the two.
    """
    artifacts = session._artifacts
    cached = artifacts.cached("candidates")
    flavors = [flavor for flavor in cached if flavor[0] and flavor[2]]
    assert flavors, "blocked run left no filtered blocked candidate flavor"
    candidates = cached[flavors[0]]
    universe = set(candidates.pairs)
    dependents = dict(
        artifacts.dependency_map(
            filtered=True, reduce_neighborhoods=flavors[0][1], blocking="auto"
        )
    )

    previously_identified = {
        pair
        for cls in previous_classes
        for pair in itertools.combinations(sorted(cls), 2)
    }
    vanished = previously_identified - universe
    for prerequisite, extra in extra_dependency_edges(
        graph, keys, candidates, sorted(vanished)
    ).items():
        dependents[prerequisite] = dependents.get(prerequisite, set()) | extra

    stale_entities = {
        entity
        for entity, neighborhood in old_neighborhoods.items()
        if neighborhood & touched
    }
    stale_entities |= touched_entity_nodes(graph, touched)
    stale_entities |= set(old_neighborhoods) & touched

    affected = set()
    for pair in universe:
        if pair not in old_quadratic or pair[0] in touched or pair[1] in touched:
            affected.add(pair)
            continue
        if use_supports and pair in previously_identified:
            support = old_supports.get(pair)
            if support is not None:
                if touched & support[0] or touched & support[1]:
                    affected.add(pair)
                continue
        if pair[0] in stale_entities or pair[1] in stale_entities:
            affected.add(pair)
    affected |= vanished
    closed = DependencyWorklist(dependents).close(affected)

    implicated = {entity for pair in closed for entity in pair}
    implicated |= touched_entity_nodes(graph, touched)
    implicated |= set(old_neighborhoods) & touched
    dropped = set()
    for cls in previous_classes:
        if implicated & cls:
            dropped.update(itertools.combinations(sorted(cls), 2))
    return len({pair for pair in universe if pair in closed or pair in dropped})


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rounds=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
)
@settings(max_examples=15, deadline=None)
def test_blocked_incremental_rechecks_within_affected_closure(seed, rounds):
    """Blocked delta runs: exact Eq, and a worklist no larger than the bound."""
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    result = session.run()
    rng = random.Random(seed)
    for count in rounds:
        base_version = graph.version
        old_quadratic = set(candidate_pairs(graph, keys))
        index = NeighborhoodIndex(graph, keys)
        old_neighborhoods = {
            entity: frozenset(index.nodes(entity))
            for entity in sorted(graph.entity_ids())
        }
        old_supports = {
            pair: (frozenset(sides[0]), frozenset(sides[1]))
            for cached in session._artifacts.cached("candidates").values()
            for pair, sides in (cached.pair_supports or {}).items()
        }
        previous_classes = [frozenset(cls) for cls in result.eq.nontrivial_classes()]

        for _ in range(count):
            apply_random_mutation(graph, rng)
        touched = graph.touched_since(base_version)
        assert touched is not None

        result = session.rerun()
        assert result.eq.pairs() == chase(graph, keys).pairs(), session.last_delta()
        delta = session.last_delta()
        assert delta.mode in ("incremental", "reused"), delta
        bounds = {
            use_supports: affected_closure_bound(
                session=session,
                graph=graph,
                keys=keys,
                touched=touched,
                old_quadratic=old_quadratic,
                old_neighborhoods=old_neighborhoods,
                old_supports=old_supports,
                previous_classes=previous_classes,
                use_supports=use_supports,
            )
            for use_supports in (True, False)
        }
        # rechecked ≤ support closure ≤ neighbourhood closure: the planner
        # runs the support-level plan, never the coarser neighbourhood one
        assert delta.pairs_rechecked <= bounds[True] <= bounds[False], (delta, bounds)


def test_support_miss_inside_neighbourhood_rechecks_nothing():
    """A touch inside a d-neighbourhood but outside every support is free.

    This is the observable difference between the support-level planner and
    the old d-neighbourhood planner: find an entity that sits inside some
    identified pair's neighbourhood ball yet outside every recorded pairing
    support (and outside every unidentified pair's ball, which always gets
    the full-neighbourhood test), touch it, and verify the worklist is
    empty where the neighbourhood test would have rechecked pairs.
    """
    from repro.core.triples import is_entity_ref

    witness = None
    for seed in range(40):
        dataset = fuzz_dataset(seed)
        graph, keys = dataset.graph, dataset.keys
        session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
        result = session.run()
        artifacts = session._artifacts
        cached = artifacts.cached("candidates")
        flavors = [f for f in cached if f[0] and f[2]]
        candidates = cached[flavors[0]]
        universe = set(candidates.pairs)
        identified = {p for p in universe if result.eq.identified(*p)}
        unidentified = universe - identified
        if not identified:
            continue
        index = NeighborhoodIndex(graph, keys)
        neighborhoods = {
            entity: frozenset(index.nodes(entity))
            for entity in sorted(graph.entity_ids())
        }
        support_nodes = set()
        for sides in (candidates.pair_supports or {}).values():
            support_nodes |= sides[0] | sides[1]
        protected = set(support_nodes)
        for pair in unidentified:
            protected |= neighborhoods[pair[0]] | neighborhoods[pair[1]]
        protected |= {entity for pair in universe for entity in pair}
        protected |= {e for cls in result.eq.nontrivial_classes() for e in cls}
        stale_if_neighbourhood = set()
        for pair in identified:
            for node in neighborhoods[pair[0]] | neighborhoods[pair[1]]:
                if is_entity_ref(node) and node in neighborhoods and node not in protected:
                    stale_if_neighbourhood.add(node)
        if stale_if_neighbourhood:
            witness = sorted(stale_if_neighbourhood)[0]
            break
    assert witness is not None, "no fuzz seed produced a support-free witness node"

    graph.add_value(witness, "support_probe", "probe_value")
    rerun = session.rerun()
    delta = session.last_delta()
    assert delta.mode in ("incremental", "reused"), delta
    assert delta.pairs_rechecked == 0, delta
    assert delta.dropped_classes == 0, delta
    assert rerun.eq.pairs() == chase(graph, keys).pairs()


def test_untouched_delta_rechecks_nothing_on_blocked_runs():
    """A mutation far outside every support set yields an O(0) recheck."""
    dataset = fuzz_dataset(3)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking="auto")
    session.run()
    graph.add_entity("isolated_entity", "isolated_type")
    result = session.rerun()
    delta = session.last_delta()
    assert delta.mode in ("incremental", "reused")
    assert delta.pairs_rechecked == 0, delta
    assert result.eq.pairs() == chase(graph, keys).pairs()


# --------------------------------------------------------------------------- #
# key-set deltas: with_keys invalidation ≡ fresh chase under the new keys
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["chase", "EMOptVC"])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_rekeyed_session_equals_fresh_chase(backend, seed):
    """with_keys(delta) keeps the snapshot and still matches a cold run."""
    from repro.core.key import KeySet

    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using(backend)
    session.run()
    rng = random.Random(seed)
    all_keys = list(keys)
    for _ in range(2):
        subset = [key for key in all_keys if rng.random() < 0.8] or all_keys[:1]
        new_keys = KeySet(subset)
        result = session.with_keys(new_keys).run()
        assert result.eq.pairs() == chase(graph, new_keys).pairs()
        apply_random_mutation(graph, rng)
        assert session.rerun().eq.pairs() == chase(graph, new_keys).pairs()
    info = session.cache_info()
    assert info.snapshot_builds == 1
