"""Property tests of the O(delta) pipeline: patch ≡ rebuild on every read.

Three layers of the delta machinery carry an identity contract:

* :meth:`GraphSnapshot.patched` never moves an id, so a patched snapshot is
  not *laid out* like a from-scratch :meth:`GraphSnapshot.build`; it must
  *read* like one.  For arbitrary journalled mutation sequences (retypes,
  removals, a literal losing its last triple, a node coming back) every
  object-space read equals the rebuild's exactly, every integer-space read
  equals it after ``node_at`` decoding, and ``patched.compacted()`` is
  bit-identical to the rebuild slot by slot.  The same holds across the
  store's delta files and across pickling, which must also keep the sender's
  ids;
* the incremental AdHash accumulator behind ``Graph.content_fingerprint``
  must always equal the one-pass :func:`graph_fingerprint` recompute — and
  the fingerprint of any snapshot compiled from the graph;
* every backend riding the patched-snapshot path must produce the same Eq
  as the sequential chase on the mutated graph.

Then the blocked-planner acceptance fuzz: on blocked incremental runs,
``pairs_rechecked`` stays within an independently computed affected-closure
bound (full d-neighbourhood staleness, closed under the dependency map, plus
dropped-class members) — the support-level planner may only ever *tighten*
that set, never exceed it.  And the one affected set per window: the radius
ball ``refresh()`` takes over the new snapshot holds every entity a sweep of
the pre-window neighbourhoods marks, and no other entity that had one.
"""

from __future__ import annotations

import itertools
import pathlib
import pickle
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ALGORITHMS, MatchSession
from repro.core.chase import candidate_pairs
from repro.core.fingerprint import graph_fingerprint
from repro.core.graph import Graph
from repro.core.triples import Literal, is_entity_ref
from repro.exceptions import StoreFormatError, StoreMissError
from repro.runtime import stable_hash
from repro.matching.incremental import DependencyWorklist, extra_dependency_edges
from repro.storage.neighborhoods import radius_per_type
from repro.storage.snapshot import GraphSnapshot
from repro.storage.store import SnapshotStore, snapshot_info
from tests.graphs import publish, unpublished
from tests.naive_semantics import naive_ball, naive_chase
from tests.reach import reach

# reuse the PR 5 mutation fuzzer verbatim — the whole point is that the
# delta layers survive the exact mutation vocabulary the journal supports
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "matching"))
from test_incremental_equivalence import apply_random_mutation, fuzz_dataset  # noqa: E402

#: every pickled-core slot of a canonical snapshot (lazy decode caches are
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


def assert_snapshots_bit_identical(canonical: GraphSnapshot, rebuilt: GraphSnapshot) -> None:
    """Two canonical snapshots, slot by slot; pass ``patched.compacted()``."""
    assert canonical.overlay_rows == rebuilt.overlay_rows == 0
    for slot in _SNAPSHOT_SLOTS:
        assert getattr(canonical, slot) == getattr(rebuilt, slot), slot


def assert_same_reads(snapshot: GraphSnapshot, rebuilt: GraphSnapshot) -> None:
    """Every read of *snapshot* answers as *rebuilt* (a fresh ``build``) does:
    the object surface exactly, the integer surface after ``node_at``."""
    decode, reference = snapshot.decode_ids, rebuilt.decode_ids
    assert snapshot.version == rebuilt.version
    assert len(snapshot) == len(rebuilt)
    for count in ("num_entities", "num_nodes", "num_triples"):
        assert getattr(snapshot, count) == getattr(rebuilt, count), count
    assert {**snapshot.stats(), "decoded_rows": 0} == {**rebuilt.stats(), "decoded_rows": 0}
    assert sorted(snapshot.entities(), key=repr) == sorted(rebuilt.entities(), key=repr)
    assert sorted(snapshot.entity_ids()) == sorted(rebuilt.entity_ids())
    assert snapshot.value_nodes() == rebuilt.value_nodes()
    assert snapshot.types() == rebuilt.types()
    assert snapshot.predicates() == rebuilt.predicates()
    assert sorted(snapshot.triples(), key=repr) == sorted(rebuilt.triples(), key=repr)
    for etype in rebuilt.types() | {"no-such-type"}:
        bucket = snapshot.type_ids(etype)
        assert snapshot.entities_of_type(etype) == rebuilt.entities_of_type(etype)
        assert [snapshot.node_at(i) for i in bucket] == rebuilt.entities_of_type(etype)
        assert len(bucket) == len(rebuilt.type_ids(etype))
        assert all(i in bucket for i in bucket)
    predicates = sorted(rebuilt.predicates()) + ["no-such-predicate"]
    nodes = sorted(rebuilt.entity_ids()) + sorted(rebuilt.value_nodes(), key=repr)
    for node in nodes:
        mine, theirs = snapshot.id_of(node), rebuilt.id_of(node)
        assert mine is not None and snapshot.node_at(mine) == node
        assert snapshot.placement_key((node, "no-such-node")) == (mine, "no-such-node")
        assert snapshot.is_literal_id(mine) == rebuilt.is_literal_id(theirs)
        assert snapshot.neighbors(node) == rebuilt.neighbors(node)
        assert snapshot.degree(node) == rebuilt.degree(node)
        assert snapshot.in_triples(node) == rebuilt.in_triples(node)
        assert decode(snapshot.adjacency(mine)) == reference(rebuilt.adjacency(theirs))
        if is_entity_ref(node):
            assert node in snapshot and snapshot.has_entity(node)
            assert snapshot.entity(node) == rebuilt.entity(node)
            assert snapshot.entity_type(node) in snapshot.types()
            assert mine in snapshot.type_ids(snapshot.entity_type(node))
            assert snapshot.out_triples(node) == rebuilt.out_triples(node)
            for radius in (0, 1, 2):
                ball = rebuilt.neighborhood_nodes(node, radius)
                assert snapshot.neighborhood_nodes(node, radius) == ball
                assert decode(snapshot.neighborhood_ids(mine, radius)) == ball
                assert decode(snapshot.encode_nodes(ball)) == ball
        for predicate in predicates:
            here, there = snapshot.pred_id(predicate), rebuilt.pred_id(predicate)
            assert snapshot.subjects(predicate, node) == rebuilt.subjects(predicate, node)
            if here < 0 or there < 0:
                assert here == there
                continue
            assert decode(snapshot.out_ids(mine, here)) == reference(rebuilt.out_ids(theirs, there))
            assert decode(snapshot.in_ids(mine, here)) == reference(rebuilt.in_ids(theirs, there))
            assert decode(snapshot.objects_ids(mine, here)) == reference(
                rebuilt.objects_ids(theirs, there)
            )
            assert decode(snapshot.subjects_ids(mine, here)) == reference(
                rebuilt.subjects_ids(theirs, there)
            )
            if is_entity_ref(node):
                assert snapshot.objects(node, predicate) == rebuilt.objects(node, predicate)
    for predicate in sorted(rebuilt.predicates()):
        postings = [
            sorted(
                (repr(reader.node_at(literal)), reader.node_at(subject))
                for literal, subject in zip(*reader.value_postings(reader.pred_id(predicate)))
            )
            for reader in (snapshot, rebuilt)
        ]
        assert postings[0] == postings[1], predicate
    # gone, never-seen and wrong-kind nodes read as absent
    for stranger in ("no-such-entity", Literal("no-such-value")):
        assert snapshot.id_of(stranger) is None
        assert stranger not in snapshot
        assert not snapshot.neighbors(stranger) and snapshot.degree(stranger) == 0


def assert_reads_as_rebuild(snapshot: GraphSnapshot, graph: Graph) -> None:
    rebuilt = GraphSnapshot.build(graph)
    assert_same_reads(snapshot, rebuilt)
    assert_snapshots_bit_identical(snapshot.compacted(), rebuilt)


# --------------------------------------------------------------------------- #
# patched snapshots ≡ rebuilt snapshots
# --------------------------------------------------------------------------- #


#: the transitions the windows below exist for
RETYPED_ACROSS_KEYED = "an entity is retyped across two keyed types"
PUBLISH_COMPACTS = "a publish compacts"
HELD_ROW_WRITE = "a write hits a node whose row only the held snapshot has"
MID_WINDOW_READ = "a node read happens mid-window and leaves the held snapshot as it was"


def reach_window(graph: Graph, held: GraphSnapshot, types_before: dict, keyed: set) -> None:
    """Tally what one window of writes over *held* reached; node reads of
    every written row must leave the held snapshot as it was."""
    written = graph.written_nodes()
    for node in sorted(written, key=repr):
        graph.out_row(node), graph.in_row(node), graph.neighbors(node)
    assert graph.held_snapshot is held and graph.written_nodes() == written
    if written:
        reach(MID_WINDOW_READ)
    if any(held.out_row(node) or held.in_row(node) for node in written):
        reach(HELD_ROW_WRITE)
    for eid, etype in types_before.items():
        if etype in keyed and graph.entity_type(eid) in keyed - {etype}:
            reach(RETYPED_ACROSS_KEYED)


@pytest.mark.reaches(RETYPED_ACROSS_KEYED, 3)
@pytest.mark.reaches(PUBLISH_COMPACTS, 14)
@pytest.mark.reaches(HELD_ROW_WRITE, 14)
@pytest.mark.reaches(MID_WINDOW_READ, 14)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rounds=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_patched_snapshot_bit_identical_to_rebuild(seed, rounds):
    """patched(journal window) reads as build(graph) and compacts to it.

    The graph itself publishes between windows, always by a compaction, so
    the snapshot it holds — which ``build(graph)`` reads for the rows no
    window wrote — is never a patch: the reference stays independent of
    :meth:`GraphSnapshot.patched`."""
    dataset = fuzz_dataset(seed)
    graph = dataset.graph
    keyed = set(dataset.keys.target_types())
    snapshot = GraphSnapshot.build(graph)
    graph.snapshot()
    rng = random.Random(seed)
    for count in rounds:
        base_version = snapshot.version
        held, types_before = graph.held_snapshot, {e.eid: e.etype for e in graph.entities()}
        for _ in range(count):
            apply_random_mutation(graph, rng)
        reach_window(graph, held, types_before, keyed)
        touched = graph.touched_since(base_version)
        assert touched is not None
        snapshot = snapshot.patched(graph, touched)
        assert_reads_as_rebuild(snapshot, graph)
        with mock.patch.object(Graph, "SNAPSHOT_PATCH_MAX_FRACTION", 0.0):
            published, how = publish(graph)
            assert published.lineage is published is graph.held_snapshot
        if how == "compaction":
            reach(PUBLISH_COMPACTS)


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
    old_id = snapshot.id_of(victim)
    graph.retype_entity(victim, rng.choice(types))
    for triple in sorted(graph.out_triples(rng.choice(entities)), key=repr)[:2]:
        graph.remove_triple(triple)
    snapshot = snapshot.patched(graph, graph.touched_since(base))
    assert snapshot.id_of(victim) == old_id  # a retype moves a type, not an id
    assert_reads_as_rebuild(snapshot, graph)

    # a patched snapshot is itself a valid patch base
    base = snapshot.version
    graph.add_entity(f"patch_{seed % 97}", rng.choice(types))
    snapshot = snapshot.patched(graph, graph.touched_since(base))
    assert_reads_as_rebuild(snapshot, graph)


def scripted_window(graph: Graph, window: int) -> None:
    """The cases a random draw rarely lines up, one per window slot: a new
    predicate, a self-loop, a literal losing its last triple and coming
    back, a retype there and back."""
    entities = sorted(graph.entity_ids())
    subject = entities[window % len(entities)]
    slot = window % 6
    if slot == 0:
        graph.add_edge(subject, f"scripted_pred_{window}", subject)  # new predicate, self-loop
    elif slot == 1:
        graph.add_value(subject, "scripted_tag", "only-holder")
    elif slot == 2:  # the literal's last triple goes: the value node dies
        for holder in sorted(graph.subjects("scripted_tag", Literal("only-holder"))):
            graph.remove_value(holder, "scripted_tag", "only-holder")
    elif slot == 3:  # ... and is re-added later, on another subject
        graph.add_value(subject, "scripted_tag", "only-holder")
    elif slot == 4:
        graph.retype_entity(subject, sorted(graph.types())[window % len(graph.types())])
    else:
        for triple in sorted(graph.out_triples(subject), key=repr)[:1]:
            graph.remove_triple(triple)
            graph.add_triple(triple)  # removed and re-added inside one window


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_long_chain_without_compaction_reads_as_a_rebuild(seed):
    """64 multi-op windows patched onto one another, never compacted: the
    overlay outgrows the canonical arrays and every read still agrees."""
    graph = fuzz_dataset(seed).graph
    snapshot = ancestor = GraphSnapshot.build(graph)
    ancestor_state = pickle.dumps(ancestor)
    rng = random.Random(seed)
    interned = {}
    for window in range(64):
        base_version = snapshot.version
        for _ in range(rng.randint(1, 4)):
            apply_random_mutation(graph, rng)
        scripted_window(graph, window)
        parent, parent_state = snapshot, pickle.dumps(snapshot)
        snapshot = snapshot.patched(graph, graph.touched_since(base_version))
        assert pickle.dumps(parent) == parent_state  # the parent is immutable
        assert snapshot._node_of is ancestor._node_of
        assert snapshot._fwd_objs is ancestor._fwd_objs
        for node in list(graph.entity_ids()) + list(graph.value_nodes()):
            # an id, once given, is the node's for the life of the chain
            assert interned.setdefault(node, snapshot.id_of(node)) == snapshot.id_of(node)
        if window % 4 == 3:
            assert_reads_as_rebuild(snapshot, graph)
    assert_reads_as_rebuild(snapshot, graph)
    assert snapshot.overlay_rows > snapshot.num_nodes / 2  # far past the session's threshold
    assert pickle.dumps(ancestor) == ancestor_state


def test_entity_removed_outright_leaves_a_tombstone_and_can_return():
    """``Graph`` has no entity removal; a window onto a graph without the
    entity (what a replaced graph object looks like) must still patch."""
    graph = fuzz_dataset(5).graph
    snapshot = GraphSnapshot.build(graph)
    victim = sorted(graph.entity_ids())[4]
    victim_id = snapshot.id_of(victim)
    touched = {victim} | graph.neighbors(victim)
    without = Graph()
    for entity in graph.entities():
        if entity.eid != victim:
            without.add_entity(entity.eid, entity.etype)
    for triple in graph.triples():
        if victim not in (triple.subject, triple.obj):
            without.add_triple(triple)
    gone = snapshot.patched(without, touched)
    assert gone.id_of(victim) is None and not gone.has_entity(victim)
    assert gone.num_interned_nodes == snapshot.num_interned_nodes
    assert_reads_as_rebuild(gone, without)

    back = gone.patched(graph, touched)  # the same node returns to its id
    assert back.id_of(victim) == victim_id
    assert back.version == graph.version
    assert_reads_as_rebuild(back, graph)


# --------------------------------------------------------------------------- #
# delta files and pickles: same reads, the sender's ids
# --------------------------------------------------------------------------- #


def patched_chain(seed: int, windows: int = 6):
    """A fuzz graph, its build, and the snapshot patched over *windows*."""
    dataset = fuzz_dataset(seed)
    graph = dataset.graph
    ancestor = snapshot = GraphSnapshot.build(graph)
    rng = random.Random(seed)
    for window in range(windows):
        base_version = snapshot.version
        for _ in range(rng.randint(1, 3)):
            apply_random_mutation(graph, rng)
        scripted_window(graph, window)
        snapshot = snapshot.patched(graph, graph.touched_since(base_version))
    return dataset, ancestor, snapshot


def assert_same_ids(snapshot: GraphSnapshot, sender: GraphSnapshot) -> None:
    assert snapshot.num_interned_nodes == sender.num_interned_nodes
    for index in range(sender.num_interned_nodes):  # tombstones included
        node = sender.node_at(index)
        assert snapshot.node_at(index) == node
        assert snapshot.id_of(node) == sender.id_of(node)


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=8, deadline=None)
def test_delta_file_round_trips(seed, tmp_path_factory):
    dataset, ancestor, patched = patched_chain(seed)
    graph = dataset.graph
    root = tmp_path_factory.mktemp("delta")
    store = SnapshotStore(root / "delta")
    store.save(ancestor)
    path = store.patch(patched, base=ancestor, fingerprint=graph.content_fingerprint())
    info = snapshot_info(path)
    assert info["kind"] == "delta" and info["ancestor"] == ancestor.store_fingerprint
    assert store.metrics()["patches"] == 1

    loaded = store.load(graph)
    assert loaded.overlay_rows == patched.overlay_rows > 0
    assert_same_ids(loaded, patched)
    assert_reads_as_rebuild(loaded, graph)
    # a load is a valid patch base, and its delta names the same ancestor
    base_version = graph.version
    apply_random_mutation(graph, random.Random(seed))
    again = loaded.patched(graph, graph.touched_since(base_version))
    assert_reads_as_rebuild(again, graph)
    again_path = store.patch(again, base=loaded, fingerprint=graph.content_fingerprint())
    assert snapshot_info(again_path).get("ancestor", ancestor.store_fingerprint) == (
        ancestor.store_fingerprint
    )
    assert_reads_as_rebuild(store.load(graph), graph)

    # save() always writes the canonical file: history leaves no trace in it
    built, saved = SnapshotStore(root / "built"), SnapshotStore(root / "saved")
    canonical = built.save(GraphSnapshot.build(graph), graph=graph)
    assert saved.save(again, graph=graph).read_bytes() == canonical.read_bytes()
    assert snapshot_info(canonical)["kind"] == "canonical"


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=8, deadline=None)
def test_pickled_patched_snapshot_keeps_the_senders_ids(seed, tmp_path_factory):
    dataset, ancestor, patched = patched_chain(seed)
    detached = pickle.loads(pickle.dumps(patched))
    assert_same_ids(detached, patched)
    assert_reads_as_rebuild(detached, dataset.graph)

    # store-backed: the ancestor travels as a path stub, the overlay inline,
    # and never the delta file (whose bytes another history may have written)
    store = SnapshotStore(tmp_path_factory.mktemp("pickle"))
    store.save(ancestor)
    delta = store.patch(patched, base=ancestor)
    payload = pickle.dumps(patched)
    assert len(payload) < len(pickle.dumps(detached))
    assert str(store.path_for(ancestor.store_fingerprint)).encode() in payload
    assert str(delta).encode() not in payload
    delta.unlink()
    attached = pickle.loads(payload)
    assert isinstance(attached._fwd_offsets, memoryview)
    assert_same_ids(attached, patched)
    assert_reads_as_rebuild(attached, dataset.graph)


@pytest.mark.parametrize("stored", [False, True], ids=["detached", "store-backed"])
def test_process_workers_on_a_patched_snapshot_equal_the_chase(stored, tmp_path):
    """All six backends; the five with executors also across a process pool,
    whose workers unpickle the patched snapshot next to id-encoded state."""
    dataset = fuzz_dataset(9)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph, snapshot_store=tmp_path if stored else None).with_keys(keys)
    session.run("EMOptVC")
    rng = random.Random(9)
    for window in range(3):
        for _ in range(2):
            apply_random_mutation(graph, rng)
        scripted_window(graph, window)
        session.rerun()
    reference = naive_chase(graph, keys)
    for backend in ALGORITHMS:
        assert session.run(backend).pairs() == reference, backend
        if backend != "chase":
            pooled = session.run(backend, processors=4, executor="process", workers=2)
            assert pooled.pairs() == reference, backend
    info = session.cache_info()
    assert info.snapshot_builds == 1 and info.snapshot_patches == 3
    assert info.snapshot_overlay_rows > 0
    assert info.store_write_failures == 0


@pytest.mark.parametrize("damage", ["deleted", "truncated"])
def test_delta_without_its_ancestor_is_a_typed_miss_and_the_session_rebuilds(damage, tmp_path):
    graph, keys = fuzz_dataset(4).graph, fuzz_dataset(4).keys
    store = SnapshotStore(tmp_path)
    session = MatchSession(graph, snapshot_store=store).with_keys(keys)
    session.run("EMOptVC")
    ancestor = store.path_for(graph.content_fingerprint())
    apply_random_mutation(graph, random.Random(4))
    session.rerun()
    session.write_owed_snapshot()
    assert snapshot_info(store.path_for(graph.content_fingerprint()))["kind"] == "delta"
    assert store.load(graph).overlay_rows > 0  # loads while the ancestor is there

    if damage == "deleted":
        ancestor.unlink()
        error = StoreMissError
    else:
        ancestor.write_bytes(ancestor.read_bytes()[:200])
        error = StoreFormatError
    with pytest.raises(error):
        store.load(graph)
    # a cold session answers the typed error with a rebuild, saved canonical
    cold = MatchSession(unpublished(graph), snapshot_store=store).with_keys(keys)
    assert cold.run("EMOptVC").pairs() == naive_chase(graph, keys)
    info = cold.cache_info()
    assert info.store_misses == 1 and info.snapshot_builds == 1
    assert snapshot_info(store.path_for(graph.content_fingerprint()))["kind"] == "canonical"
    assert_reads_as_rebuild(store.load(graph), graph)


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
    reference = naive_chase(graph, keys)
    for backend, session in sessions.items():
        result = session.rerun()
        assert result.eq.pairs() == reference, backend
        # a delta that implicates no candidate pair legitimately reuses the
        # previous result without ever refreshing the snapshot; the others
        # read the patched snapshot the shared graph published
        if session.last_delta().mode != "reused":
            assert session.cache_info().snapshot_overlay_rows > 0, backend
    # the sessions share the graph, so one of them built its snapshot
    infos = [session.cache_info() for session in sessions.values()]
    assert sum(info.snapshot_builds for info in infos) == 1


# --------------------------------------------------------------------------- #
# blocked planner acceptance: pairs_rechecked within the affected closure
# --------------------------------------------------------------------------- #


def naive_neighborhoods(graph: Graph, keys, entities=None):
    """Every entity's d-neighbourhood (all of *entities* when given), read by
    the reference BFS over ``Graph`` rather than the snapshot index."""
    radius = radius_per_type(keys)
    return {
        entity: frozenset(naive_ball(graph, entity, radius.get(graph.entity_type(entity), 0)))
        for entity in sorted(graph.entity_ids() if entities is None else entities)
    }


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

    touched_entities = {
        node for node in touched if is_entity_ref(node) and graph.has_entity(node)
    }
    stale_entities = {
        entity
        for entity, neighborhood in old_neighborhoods.items()
        if neighborhood & touched
    }
    stale_entities |= touched_entities
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
    implicated |= touched_entities
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
        old_neighborhoods = naive_neighborhoods(graph, keys)
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
        assert result.eq.pairs() == naive_chase(graph, keys), session.last_delta()
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
        neighborhoods = naive_neighborhoods(graph, keys)
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
    assert rerun.eq.pairs() == naive_chase(graph, keys)


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
    assert result.eq.pairs() == naive_chase(graph, keys)


# --------------------------------------------------------------------------- #
# two affected sets per window: the new-snapshot balls hold the old sweeps
# --------------------------------------------------------------------------- #


def cached_neighbourhood_sweep(neighborhoods, touched):
    """The old-side rule the ball replaced: a cached entity that was touched,
    or whose cached (pre-window) d-neighbourhood holds a touched node."""
    return {
        entity
        for entity, nodes in neighborhoods.items()
        if entity in touched or touched & nodes
    }


def key_vocabulary(keys):
    return {predicate for key in keys for predicate in key.pattern.predicates()}


def naive_key_view(graph, node, vocabulary):
    """What keys read of *node*: its entity type (``None`` for a value or an
    absent entity) and its key triples, both directions."""
    triples = graph.out_triples(node) if is_entity_ref(node) else set()
    triples = {t for t in triples | graph.in_triples(node) if t.predicate in vocabulary}
    etype = graph.entity_type(node) if is_entity_ref(node) and graph.has_entity(node) else None
    return etype, triples


def naive_key_neighborhoods(graph, keys, vocabulary):
    """Every keyed entity's d-neighbourhood over key triples only."""
    radius = radius_per_type(keys)
    found = {}
    for entity in graph.entity_ids():
        if graph.entity_type(entity) not in radius:
            continue
        seen, frontier = {entity}, [entity]
        for _ in range(radius[graph.entity_type(entity)]):
            reached = []
            for node in frontier:
                triples = graph.out_triples(node) if is_entity_ref(node) else set()
                for t in triples | graph.in_triples(node):
                    other = t.obj if t.subject == node else t.subject
                    if t.predicate in vocabulary and other not in seen:
                        seen.add(other)
                        reached.append(other)
            frontier = reached
        found[entity] = seen
    return found


@pytest.mark.parametrize("blocking", ["auto", "off"])
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    rounds=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
)
@settings(max_examples=15, deadline=None)
def test_the_window_ball_holds_the_cached_neighbourhood_sweep(blocking, seed, rounds):
    """Over multi-op fuzz windows (triples added and removed, entities added
    and retyped, literals edited, key predicates or not) the full ball
    ``refresh()`` returns — the touched nodes' radius ball over the new
    snapshot — contains every entity the pre-window sweep marks, and names
    exactly those among the entities cached when the window opened: a
    removed edge journals both endpoints, and so does an added one.  The
    same holds over every keyed entity's pre-window neighbourhood, cached by
    the session or not.  The key-roots are exactly the touched nodes whose
    type or key triples (either direction) a reference diff of the two
    graphs sees change (every touched node, on a compacting window), and
    the key ball holds every keyed entity whose key-triple neighbourhood,
    before or after the window, holds one."""
    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    # one radius for every keyed type, so the ball and the sweep see as far
    assert len(set(radius_per_type(keys).values())) == 1
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking=blocking)
    session.run()
    arts = session._artifacts
    refresh, returned = arts.refresh, []

    def recording_refresh():
        returned.append(refresh())
        return returned[-1]

    arts.refresh = recording_refresh
    rng = random.Random(seed)
    vocabulary = key_vocabulary(keys)
    for count in rounds:
        base_version = graph.version
        before = graph.copy()
        cached_index = arts.neighborhood_index()
        by_session = {e: cached_index.nodes(e) for e in cached_index.cached_entities()}
        everyone = naive_neighborhoods(
            graph,
            keys,
            (e for e in graph.entity_ids() if graph.entity_type(e) in keys.target_types()),
        )
        for _ in range(count):
            apply_random_mutation(graph, rng)
        touched = graph.touched_since(base_version)
        sweeps = [(set(cached), cached_neighbourhood_sweep(cached, touched))
                  for cached in (by_session, everyone)]
        returned.clear()
        compactions = arts.cache_info().snapshot_compactions
        session.rerun()
        if not touched:
            continue
        (window,) = returned
        for cached, swept in sweeps:
            assert swept <= window.ball, swept - window.ball
            assert window.ball & cached == swept, (window.ball & cached) ^ swept
        roots = {
            node
            for node in touched
            if naive_key_view(before, node, vocabulary)
            != naive_key_view(graph, node, vocabulary)
        }
        if arts.cache_info().snapshot_compactions != compactions:
            # a new id lineage: nothing to diff against, every touch counts
            assert window.key_roots == touched
        else:
            assert window.key_roots == roots, window.key_roots ^ roots
        assert window.key_ball <= window.ball
        for side in (before, graph):
            neighborhoods = naive_key_neighborhoods(side, keys, vocabulary)
            swept = cached_neighbourhood_sweep(neighborhoods, roots)
            assert swept <= window.key_ball, swept - window.key_ball


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
        assert result.eq.pairs() == naive_chase(graph, new_keys)
        apply_random_mutation(graph, rng)
        assert session.rerun().eq.pairs() == naive_chase(graph, new_keys)
    info = session.cache_info()
    assert info.snapshot_builds == 1


# --------------------------------------------------------------------------- #
# what the product graph remembers: carried or recomputed ≡ a fresh Gp
# --------------------------------------------------------------------------- #


def _remembered_rows(product_graph):
    """``{(node, predicate, forward): list}`` of every remembered entry."""
    rows = {}
    for forward, table in ((True, product_graph._forward), (False, product_graph._backward)):
        for node, row in table.items():
            for predicate, found in row.items():
                rows[(node, predicate, forward)] = found
    return rows


def _read_every_row(product_graph, predicates):
    for node in list(product_graph.nodes()):
        for predicate in predicates:
            product_graph.neighbors(node, predicate, True)
            product_graph.neighbors(node, predicate, False)


@pytest.mark.parametrize("blocking", ["off", "auto"])
@pytest.mark.parametrize("seed", [6, 8, 19, 24, 27, 47])
def test_remembered_adjacency_equals_a_fresh_product_graph_after_every_window(seed, blocking):
    """Multi-op windows with retypes, a literal dying and returning, a triple
    removed and re-added: after every ``rebased()`` each remembered row —
    carried across the window, then recomputed on demand — is the list a
    fresh ``ProductGraph`` returns, ``count_edges()`` is the fresh count, and
    the placement tables hold no node that left ``Gp``.  The seeds are the
    ones (of 0..39) on which a weakened carry rule goes stale: 6, 8, 19 and 24
    carry a literal pair's backward row across a value edit without the
    entity-pair condition, 6, 24 and 27 miss a neighbour that changed
    membership without the ``moved`` set, every seed without the affected
    check."""
    from repro.matching.product_graph import ProductGraph

    dataset = fuzz_dataset(seed)
    graph, keys = dataset.graph, dataset.keys
    session = MatchSession(graph).with_keys(keys).using("EMOptVC", blocking=blocking)
    session.run()
    session.run("EMVC", processors=3)  # a second placement table
    arts = session._artifacts
    request = dict(filtered=True, reduce_neighborhoods=False, blocking=blocking)
    _read_every_row(arts.product_graph(**request), sorted(graph.predicates()))

    rng = random.Random(seed)
    carried_total = 0
    for window in range(8):
        for _ in range(rng.randint(1, 3)):
            apply_random_mutation(graph, rng)
        scripted_window(graph, window)
        arts.refresh()
        rebased = arts.product_graph(**request)
        assert arts.cache_info().product_graph_builds == 1  # rebased, not rebuilt
        fresh = ProductGraph(arts.snapshot(), keys, arts.candidates(**request))
        predicates = sorted(graph.predicates())

        def expected(node, predicate, forward):
            return fresh.neighbors(node, predicate, forward)

        carried = _remembered_rows(rebased)
        carried_total += len(carried)
        for (node, predicate, forward), found in carried.items():
            assert found == expected(node, predicate, forward), (window, node, predicate, forward)
        for node, row in rebased._forward.items():  # a forward row is complete
            assert row == {p: expected(node, p, True) for p in predicates if expected(node, p, True)}
        assert rebased.count_edges() == fresh.count_edges()
        live = set(rebased.nodes())
        assert {3, session.config.processors} <= set(rebased._placements)
        for placement in rebased._placements.values():
            assert set(placement) <= live
            assert all(worker == stable_hash(node) % placement.processors
                       for node, worker in placement.items())

        _read_every_row(rebased, predicates)
        for (node, predicate, forward), found in _remembered_rows(rebased).items():
            assert found == expected(node, predicate, forward), (window, node, predicate, forward)
        for node in live:
            for predicate in predicates:
                for forward in (True, False):
                    assert rebased.neighbors(node, predicate, forward, True) == sorted(
                        expected(node, predicate, forward), key=fresh._priority_key
                    )
        assert session.rerun().eq.pairs() == naive_chase(graph, keys)
    assert carried_total > 0  # the windows did carry rows across


def test_what_the_product_graph_remembers_is_not_pickled():
    """A warm product graph ships to process workers as a cold one does."""
    from repro.matching.product_graph import ProductGraph

    dataset = fuzz_dataset(11)
    session = MatchSession(dataset.graph).with_keys(dataset.keys).using("EMOptVC")
    reference = session.run()
    arts = session._artifacts
    flavour = dict(filtered=True, blocking=session.config.blocking)
    warm_graph = arts.product_graph(**flavour)
    assert warm_graph._forward and warm_graph._send_order and warm_graph._placements
    cold_graph = ProductGraph(
        arts.snapshot(), dataset.keys, arts.candidates(**flavour),
        dependents=arts.dependency_map(**flavour),
    )
    assert len(pickle.dumps(warm_graph)) == len(pickle.dumps(cold_graph))
    clone = pickle.loads(pickle.dumps(warm_graph))
    assert not (clone._forward or clone._backward or clone._send_order or clone._placements)
    assert clone.count_edges() == warm_graph.count_edges()

    # ... and a process-executor run after the warm serial one is bit-identical
    parallel = session.run(executor="process", workers=2)
    assert parallel.eq.pairs() == reference.eq.pairs()
    assert parallel.stats == session.run(executor="serial", workers=2).stats
