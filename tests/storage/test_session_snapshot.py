"""Session integration of the storage layer: caching, staleness, identity.

Covers the acceptance bar of the snapshot refactor: one snapshot per
``Graph.version`` shared by every backend run through a session, journal-
driven rebuilds on mutation, all six registered backends agreeing with the
naive reference chase, and a chase over a patched snapshot (ids in history
order) counting exactly what one over a fresh build (ids in canonical
order) counts.
"""

from __future__ import annotations

from repro.api.registry import ALGORITHMS
from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.core.triples import Triple
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.storage import GraphSnapshot

from tests.naive_semantics import naive_chase


def _session_dataset():
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=5, scale=1.0, seed=7
    )


def test_session_builds_one_snapshot_for_all_backends():
    dataset = _session_dataset()
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    session.run_all(list(ALGORITHMS))
    assert session.cache_info().snapshot_builds == 1


def test_all_six_backends_agree_with_the_naive_chase():
    """chase(G, Σ) is one set of pairs, whichever backend computes it."""
    dataset = _session_dataset()
    reference = naive_chase(dataset.graph, dataset.keys)
    assert reference  # the seeded dataset must contain duplicates to find
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    results = session.run_all(list(ALGORITHMS))
    assert set(results) == set(ALGORITHMS)
    for name, result in results.items():
        assert result.pairs() == reference, name
    assert session.cache_info().snapshot_builds == 1


def test_chase_over_a_patched_snapshot_counts_what_a_fresh_build_counts():
    """Ids on a patched snapshot follow history, not canonical order: an
    entity added after the build takes the next id, past every entity it
    sorts before.  Candidate order comes from sorted entity ids, never from
    the id, so the two chases agree on pairs, rounds, checks and steps."""
    graph, keys = music_dataset()
    old = GraphSnapshot.build(graph)
    version = graph.version
    # a duplicate of alb1 whose id sorts before every album's
    graph.add_entity("alb0", graph.entity_type("alb1"))
    for triple in graph.out_triples("alb1"):
        graph.add_triple(Triple("alb0", triple.predicate, triple.obj))
    for triple in graph.in_triples("alb1"):
        graph.add_triple(Triple(triple.subject, triple.predicate, "alb0"))
    patched = old.patched(graph, graph.touched_since(version))
    fresh = GraphSnapshot.build(graph)
    assert patched.overlay_rows and not fresh.overlay_rows
    assert patched.id_of("alb0") > patched.id_of("alb1")
    assert fresh.id_of("alb0") < fresh.id_of("alb1")

    over_patched = chase(graph, keys, snapshot=patched)
    over_fresh = chase(graph, keys, snapshot=fresh)
    assert over_patched.pairs() == over_fresh.pairs() == naive_chase(graph, keys)
    assert over_patched.identified("alb0", "alb1")
    assert over_patched.rounds == over_fresh.rounds
    assert over_patched.checks == over_fresh.checks
    assert over_patched.steps == over_fresh.steps


def test_mutation_bumps_version_and_session_rebuilds_snapshot():
    """Staleness: a mutated Graph invalidates the cached snapshot.

    A small journal delta refreshes the snapshot by *patching* the previous
    one (bit-identical to a recompile, counted in ``snapshot_patches``)
    rather than building from scratch, so ``snapshot_builds`` stays at 1.
    """
    dataset = _session_dataset()
    graph = dataset.graph
    session = MatchSession(graph).with_keys(dataset.keys)
    before = session.run("chase")
    artifacts = session._artifacts
    first_snapshot = artifacts.snapshot()
    assert session.cache_info().snapshot_builds == 1
    assert first_snapshot.version == graph.version

    version_before = graph.version
    entity = next(iter(graph.entity_ids()))
    graph.add_value(entity, "staleness_probe", "mutated")
    assert graph.version > version_before

    after = session.run("chase")
    info = session.cache_info()
    assert info.snapshot_builds + info.snapshot_patches == 2
    assert info.snapshot_patches == 1
    assert info.invalidations >= 1
    second_snapshot = session._artifacts.snapshot()
    assert second_snapshot is not first_snapshot
    assert second_snapshot.version == graph.version
    assert second_snapshot.objects(entity, "staleness_probe")  # sees the mutation
    # the result is recomputed against the mutated graph, not served stale
    assert after.pairs() == chase(graph, dataset.keys).pairs()
    assert before.algorithm == after.algorithm == "chase"


def test_mutation_rebases_fresh_neighborhood_entries():
    dataset = _session_dataset()
    graph = dataset.graph
    session = MatchSession(graph).with_keys(dataset.keys)
    session.run("EMOptMR")
    artifacts = session._artifacts
    index_before = artifacts.neighborhood_index()
    cached_before = set(index_before.cached_entities())
    assert cached_before

    entity = next(iter(graph.entity_ids()))
    graph.add_value(entity, "rebase_probe", 42)
    session.run("EMOptMR")

    artifacts = session._artifacts
    index_after = artifacts.neighborhood_index()
    assert index_after is not index_before
    assert index_after.snapshot.version == graph.version
    # entities untouched by the mutation kept their cached neighbourhoods
    touched = {entity} | graph.neighbors(entity)
    survivors = {
        e
        for e in cached_before
        if e not in touched and not (touched & index_before.nodes(e))
    }
    assert survivors <= index_after.cached_entities()


def test_phase_timings_record_snapshot_and_candidate_builds():
    dataset = _session_dataset()
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    assert session.phase_timings() == {}
    session.run("EMOptVC")
    timings = session.phase_timings()
    for phase in ("snapshot_build", "candidates_build", "product_graph_build"):
        assert phase in timings and timings[phase] >= 0.0
