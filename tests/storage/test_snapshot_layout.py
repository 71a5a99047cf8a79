"""The snapshot's on-disk layout, pinned.

``GraphSnapshot.build`` may be rewritten for speed, never for layout: store
files written by one version must load and fingerprint-match under the next,
and be the ancestor the next version's delta files name.  The property suites compare two code paths of the *same*
checkout (``patched`` against ``build``), so a rewrite that moved both the
same way would pass them.  These constants were recorded from the files the
store wrote before ``build`` went triple-major; a mismatch means files
already on disk no longer describe what ``build`` produces.

The checksum is the header's CRC-32 over every segment in file order
(interning tables, the three CSRs, the value index), so it moves when any
id, row order or table encoding moves.  Nothing here may depend on the hash
salt: CI re-runs this file under ``PYTHONHASHSEED=1`` and ``2``.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.storage import GraphSnapshot, SnapshotStore, fingerprint_of, snapshot_info

from tests.properties.test_delta_properties import (
    assert_same_reads,
    assert_snapshots_bit_identical,
)

#: dataset -> (content fingerprint, segment checksum, file size in bytes)
PINNED = {
    "music": (
        "1d9451e8efc45139423e000cdb56cd207ee993df2eb1f12cf321591ff3be076f",
        1413121404,
        2032,
    ),
    "synthetic": (
        "3e5dc3d642ea06e4c1ca68b4d0f01e3b40de29c9cf38a809bec56368abd83332",
        4101316644,
        28024,
    ),
}
#: the synthetic graph after ``mutation_window`` (below)
PINNED_AFTER_WINDOW = (
    "38e892ab793ffa8cfb48f38cf5e32432d035764056c3265e04d531c056ba03c5",
    2939005688,
    28664,
)
#: the delta file of that window over the pinned ``synthetic`` file; the last
#: field is the CRC-32 of the whole file (the header holds overlay fields too)
PINNED_DELTA_AFTER_WINDOW = (PINNED_AFTER_WINDOW[0], 432804835, 8512, 2424416971)


def _graph(name: str):
    if name == "music":
        return music_dataset()[0]
    return synthetic_dataset(
        num_keys=8, chain_length=2, radius=2, entities_per_type=8, scale=1, seed=1
    ).graph


def _stored(store: SnapshotStore, snapshot: GraphSnapshot, graph):
    info = snapshot_info(store.save(snapshot, graph=graph))
    return info["fingerprint"], info["checksum"], info["file_size"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_built_snapshot_writes_the_pinned_file(name, tmp_path):
    graph = _graph(name)
    snapshot = GraphSnapshot.build(graph)
    assert fingerprint_of(snapshot) == PINNED[name][0]
    assert _stored(SnapshotStore(tmp_path), snapshot, graph) == PINNED[name]


def mutation_window(graph) -> None:
    """A mixed journal window; every choice is drawn from a sorted list."""
    rng = random.Random(16)
    for round_ in range(8):
        entities = sorted(graph.entity_ids())
        types = sorted(graph.types())
        triples = sorted(graph.triples(), key=repr)
        values = [t for t in triples if t.object_is_value()]
        source, target = rng.sample(entities, 2)
        graph.add_edge(source, rng.choice(sorted(graph.predicates())), target)
        graph.remove_triple(rng.choice(triples))
        graph.retype_entity(rng.choice(entities), rng.choice(types))
        edited = rng.choice(values)
        graph.set_value(edited.subject, edited.predicate, rng.choice(values).obj)
        gone = rng.choice(values)  # often the literal's last triple
        graph.remove_value(gone.subject, gone.predicate, gone.obj)
        fresh = f"window_{round_}"
        graph.add_entity(fresh, rng.choice(types))
        graph.add_value(fresh, "window_tag", f"tag {round_ % 3}")  # a new predicate
        graph.add_edge(fresh, "window_ref", rng.choice(entities))
        graph.add_edge(fresh, "window_ref", fresh)  # a self-loop


def test_build_and_patch_agree_on_the_pinned_file_after_a_mutation_window(tmp_path):
    graph = _graph("synthetic")
    base = GraphSnapshot.build(graph)
    mutation_window(graph)
    built = GraphSnapshot.build(graph)
    patched = base.patched(graph, graph.touched_since(base.version))
    assert_same_reads(patched, built)
    assert_snapshots_bit_identical(patched.compacted(), built)
    assert _stored(SnapshotStore(tmp_path / "built"), built, graph) == PINNED_AFTER_WINDOW
    assert _stored(SnapshotStore(tmp_path / "patched"), patched, graph) == PINNED_AFTER_WINDOW


def test_patch_of_the_mutation_window_writes_the_pinned_delta_file(tmp_path):
    """One history, one delta: the ids a window's new terms take and the
    bytes the store writes for it depend on neither set order nor the salt."""
    graph = _graph("synthetic")
    base = GraphSnapshot.build(graph)
    store = SnapshotStore(tmp_path)
    store.save(base, graph=graph)
    mutation_window(graph)
    patched = base.patched(graph, graph.touched_since(base.version))
    appended = [
        patched.node_at(i) for i in range(base.num_interned_nodes, patched.num_interned_nodes)
    ]
    assert appended[:8] == sorted(  # canonical order of the new terms: entities ...
        (f"window_{round_}" for round_ in range(8)), key=lambda e: (graph.entity_type(e), e)
    )
    assert appended[8:] == sorted(appended[8:], key=repr)  # then the new values
    assert [patched.pred_id(p) - len(base.predicates()) for p in ("window_ref", "window_tag")] == [
        0, 1,
    ]
    path = store.patch(patched, base=base)
    info = snapshot_info(path)
    assert info["kind"] == "delta" and info["ancestor"] == PINNED["synthetic"][0]
    assert (
        info["fingerprint"], info["checksum"], info["file_size"], zlib.crc32(path.read_bytes())
    ) == PINNED_DELTA_AFTER_WINDOW
    assert_same_reads(store.load(graph), GraphSnapshot.build(graph))
