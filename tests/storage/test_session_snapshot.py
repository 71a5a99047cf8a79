"""Session integration of the storage layer: caching, staleness, identity.

Covers the acceptance bar of the snapshot refactor: one snapshot per
``Graph.version`` shared by every backend run through a session, journal-
driven rebuilds on mutation, all six registered backends agreeing with the
naive reference chase, and a chase over a patched snapshot (ids in history
order) counting exactly what one over a fresh build (ids in canonical
order) counts.
"""

from __future__ import annotations

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api.registry import ALGORITHMS
from repro.api.session import MatchSession
from repro.core.chase import chase
from repro.core.graph import Graph
from repro.core.triples import Literal, Triple
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.storage import GraphSnapshot

from tests.graphs import triples_of, unpublished
from tests.naive_semantics import naive_chase, reference_fixpoint


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
    session = MatchSession(unpublished(dataset.graph)).with_keys(dataset.keys)
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


def test_a_second_session_and_a_copy_read_the_snapshot_the_graph_holds(tmp_path):
    """A graph holds the snapshot its first session published: a second
    session over it — with a snapshot store or without — and a session over
    its copy build nothing and ask the store nothing.  The first
    store-backed one writes the held snapshot, which the store lacked, to
    the store; the next one finds it stored."""
    dataset = _session_dataset()
    graph, keys = dataset.graph, dataset.keys
    first = MatchSession(graph).with_keys(keys)
    expected = first.run("EMOptVC").pairs()
    held = graph.held_snapshot
    assert first.cache_info().snapshot_builds == 1 and held is not None
    copy = graph.copy()
    assert copy.held_snapshot is held and copy.written_nodes() == set()
    for session in (
        MatchSession(graph).with_keys(keys),
        MatchSession(graph, snapshot_store=tmp_path).with_keys(keys),
        MatchSession(copy).with_keys(keys),
        MatchSession(copy, snapshot_store=tmp_path).with_keys(keys),
    ):
        assert session.run("EMOptVC").pairs() == expected
        info = session.cache_info()
        assert (info.snapshot_builds, info.store_hits, info.store_misses) == (0, 0, 0)
        assert session._artifacts.snapshot() is held
    assert graph.held_snapshot is copy.held_snapshot is held
    assert held.store_path is not None and len(list(tmp_path.iterdir())) == 1


def test_a_session_with_nothing_to_rebase_builds_where_the_graph_would_patch(tmp_path):
    """A graph holding a snapshot plus one written row would publish by a
    patch.  A session that has cached nothing (a first run, a recovery's)
    builds instead, asking its store first, because its full run reads a
    canonical snapshot; the graph holds that build.  A session with
    artifacts to rebase patches what the graph holds."""
    dataset = _session_dataset()
    graph, keys = dataset.graph, dataset.keys
    warm = MatchSession(graph).with_keys(keys)
    warm.run("EMOptVC")
    entity = sorted(graph.entity_ids())[0]
    graph.set_value(entity, "window_tag", "cold")
    cold = MatchSession(graph, snapshot_store=tmp_path).with_keys(keys)
    assert cold.run("EMOptVC").pairs() == reference_fixpoint(unpublished(graph), keys)
    info = cold.cache_info()
    assert (info.snapshot_builds, info.snapshot_patches, info.store_misses) == (1, 0, 1)
    built = graph.held_snapshot
    assert built.lineage is built and built.version == graph.version

    graph.set_value(entity, "window_tag", "warm")
    assert warm.rerun().pairs() == reference_fixpoint(unpublished(graph), keys)
    info = warm.cache_info()
    assert (info.snapshot_builds, info.snapshot_patches) == (1, 1)
    assert graph.held_snapshot.lineage is built


def test_two_sessions_publishing_one_graph_at_once_hold_its_content(monkeypatch):
    """Two sessions over one graph rerun at once after a ``set_value``
    window (one literal swapped for a new one, so the triple count stays).
    The first is held up inside its patch, after it has classified the
    window, until the second has published and the graph has dropped its
    written rows: it must still patch off the rows it captured, not read
    the held snapshot for a row the graph wrote.  Both answer the naive
    chase of the graph, and the snapshot the graph holds reads as a build
    of an independent copy of it."""
    dataset = synthetic_dataset(
        num_keys=6, chain_length=2, radius=2, entities_per_type=5, seed=13
    )
    graph, keys = dataset.graph, dataset.keys
    slow, fast = (MatchSession(graph).with_keys(keys).using("EMOptVC") for _ in range(2))
    slow.run(), fast.run()
    subject, predicate, literal = next(
        (t.subject, t.predicate, t.obj)
        for t in sorted(graph.triples(), key=repr)
        if isinstance(t.obj, Literal) and len(graph.in_row(t.obj)) == 1
    )
    graph.set_value(subject, predicate, "raced")
    assert not graph.in_row(literal) and graph.num_triples == len(list(triples_of(graph)))
    truth = unpublished(graph)
    held = graph.held_snapshot

    entered, published = threading.Event(), threading.Event()
    entity_type = Graph.entity_type

    def held_up(self, eid):  # the slow session's first read past the classification
        if threading.current_thread().name == "slow" and not entered.is_set():
            entered.set()
            assert published.wait(10)
        return entity_type(self, eid)

    monkeypatch.setattr(Graph, "entity_type", held_up)
    results = {}
    worker = threading.Thread(
        target=lambda: results.setdefault("slow", slow.rerun()), name="slow"
    )
    worker.start()
    assert entered.wait(10)
    results["fast"] = fast.rerun()
    assert graph.held_snapshot is not held and graph.written_nodes() == set()
    published.set()
    worker.join(10)
    assert not worker.is_alive()

    expected = reference_fixpoint(truth, keys)
    assert {name: result.pairs() for name, result in results.items()} == {
        "slow": expected, "fast": expected
    }
    reference = GraphSnapshot.build(truth)
    for snapshot in (graph.held_snapshot, slow._artifacts.snapshot(), fast._artifacts.snapshot()):
        assert snapshot.version == graph.version
        assert set(snapshot.triples()) == set(reference.triples())
        assert snapshot.value_nodes() == reference.value_nodes()
        for node in (subject, literal, Literal("raced")):
            assert snapshot.out_row(node) == reference.out_row(node)
            assert snapshot.in_row(node) == reference.in_row(node)


def test_four_sessions_publishing_one_graph_under_a_short_switch_interval_agree():
    """More sessions than cores publish one graph at once, window after
    window (a build first, then patches), with the interpreter switching
    threads every microsecond: every run answers the naive chase, and the
    graph ends each window holding its content with no written row left."""
    dataset = synthetic_dataset(
        num_keys=6, chain_length=2, radius=2, entities_per_type=5, seed=13
    )
    graph, keys = dataset.graph, dataset.keys
    sessions = [MatchSession(graph).with_keys(keys).using("EMOptVC") for _ in range(4)]
    rng = random.Random(5)
    entities = sorted(graph.entity_ids())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(sessions)) as pool:
            for window in range(6):
                for _ in range(3 * window):
                    graph.set_value(rng.choice(entities), "window_tag", f"v{rng.randrange(4)}")
                truth = unpublished(graph)
                runs = [pool.submit(s.rerun if window else s.run) for s in sessions]
                expected = reference_fixpoint(truth, keys)
                assert [run.result(timeout=60).pairs() for run in runs] == [expected] * 4
                assert graph.written_nodes() == set() and graph.held_snapshot.version == graph.version
                assert set(graph.held_snapshot.triples()) == set(GraphSnapshot.build(truth).triples())
    finally:
        sys.setswitchinterval(interval)
