"""Session integration of the storage layer: caching, staleness, identity.

Covers the acceptance bar of the snapshot refactor: one snapshot per
``Graph.version`` shared by every backend run through a session, journal-
driven rebuilds on mutation, and all six registered backends bit-identical
to the sequential chase on the snapshot path.
"""

from __future__ import annotations

from repro.api.registry import ALGORITHMS
from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.storage import GraphSnapshot


def _session_dataset():
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=5, scale=1.0, seed=7
    )


def test_session_builds_one_snapshot_for_all_backends():
    dataset = _session_dataset()
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    session.run_all(list(ALGORITHMS))
    assert session.cache_info().snapshot_builds == 1


def test_all_six_backends_bit_identical_to_chase_on_snapshot_path():
    """chase(G, Σ) is one set of pairs, snapshot path or dict path."""
    dataset = _session_dataset()
    dict_path = chase(dataset.graph, dataset.keys).pairs()
    assert dict_path  # the seeded dataset must contain duplicates to find
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    results = session.run_all(list(ALGORITHMS))
    assert set(results) == set(ALGORITHMS)
    for name, result in results.items():
        assert result.pairs() == dict_path, name
    assert session.cache_info().snapshot_builds == 1


def test_chase_snapshot_path_matches_dict_path_exactly():
    graph, keys = music_dataset()
    dict_run = chase(graph, keys)
    snap_run = chase(graph, keys, snapshot=GraphSnapshot.build(graph))
    assert snap_run.pairs() == dict_run.pairs()
    assert snap_run.rounds == dict_run.rounds
    assert snap_run.checks == dict_run.checks
    assert {s.pair for s in snap_run.steps} == {s.pair for s in dict_run.steps}


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
