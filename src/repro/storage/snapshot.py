"""``GraphSnapshot``: an immutable, interned, CSR-backed view of a ``Graph``.

A snapshot is where a :class:`~repro.core.graph.Graph` holds its triples:
the graph keeps the snapshot it last published plus the rows written since,
and :meth:`Graph.snapshot` publishes the next one — a :meth:`build` when it
holds none, else a :meth:`patched` of the held one, or a build again once
the overlay passes the graph's bound (a compaction).  Every reader below
``repro.api`` reads a snapshot, which answers ``snapshot()`` with itself.

A snapshot is in one of two forms.

**Canonical** is what :meth:`GraphSnapshot.build` compiles, off what
:meth:`Graph.content` answers (the rows nobody wrote re-keyed off the held
snapshot in id space), and the only form the store writes whole.
Every node has a dense integer id:

* entity ids come first, sorted by ``(type, entity id)``, so within a type
  ids follow the sorted entity-id order that
  :meth:`~repro.core.graph.Graph.entities_of_type` reports;
* value nodes (:class:`~repro.core.triples.Literal`) follow, sorted by repr.

Predicates are interned the same way.  Adjacency is stored in CSR form
(offset + column arrays over node ids): forward ``(pred, obj)`` runs per
subject, backward ``(pred, subj)`` runs per object, and a deduplicated
undirected neighbour list per node that drives the d-neighbourhood BFS in
pure integer space.

**Patched** is what :meth:`GraphSnapshot.patched` produces from a journal
window (a graph's own: the nodes it wrote), and **ids never move**.  A
patched snapshot shares its canonical ancestor's interning tables and
arrays *by reference* and carries an overlay (:class:`_Overlay`): nodes and
predicates new since the ancestor take the next ids past its, a node that
left the graph leaves a tombstone, a retyped entity keeps its id, and the
rows of every node a window touched are held, recomputed, in the overlay.  Every read consults the overlay first, so a
window costs what it touched and nothing that scales with the graph;
:meth:`GraphSnapshot.compacted` re-canonicalises.

Two API surfaces coexist:

* the **read surface of Graph** (``entity_type``, ``objects``, ``subjects``,
  ``has_triple``, ``neighbors``, ``out_row``, ...), duck-type compatible so
  every read-side consumer — the guided evaluator, the pairing fixpoint,
  the declarative matcher, the product graph — runs on a snapshot, and the
  graph's own node reads fall through to it for every row not written;
* an **integer-space surface** (``out_ids``, ``in_ids``,
  ``neighborhood_ids``, ``type_ids``, ``is_literal_id``) used by the
  compiled hot paths (the CSR BFS, signature blocking).  An id is a stable
  handle and nothing more: that a canonical type bucket is a contiguous
  range and that literals follow entities are facts of one form, not of the
  surface.  Ask :meth:`GraphSnapshot.type_ids` and
  :meth:`GraphSnapshot.is_literal_id`; order comes from sorted entity ids,
  never from the id.

Pickling ships only the compact arrays and interning tables.  Nothing is
decoded up front: the object-space surface decodes and memoises one CSR row
the first time that row is read, in each process, so a reader pays for the
rows it touches and never for the graph (``stats()["decoded_rows"]``).
"""

from __future__ import annotations

import os
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, repeat
from operator import itemgetter as _itemgetter
from operator import sub
from types import MappingProxyType
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.graph import Graph
from ..core.triples import Entity, GraphNode, Literal, Triple, is_entity_ref
from ..exceptions import SnapshotPatchError, UnknownEntityError

#: Array typecode for node/predicate ids and CSR offsets.
_ID = "q"
#: Which 4-byte half of an ``_ID`` item holds its low bits (worker payloads).
_LOW = 0 if sys.byteorder == "little" else 1

#: The empty candidate set returned for unknown (node, predicate) lookups.
_EMPTY_NODES: FrozenSet[GraphNode] = frozenset()
#: The decoded row of a node the graph does not hold (never memoised).
_NO_ROW: Mapping[str, frozenset] = MappingProxyType({})


def _offsets(rows: Sequence[int], num_rows: int) -> array:
    """The CSR offset array of a sorted row-id column, by counting."""
    counts = [0] * (num_rows + 1)
    for row in rows:
        counts[row + 1] += 1
    return array(_ID, accumulate(counts))


def _unpack(
    keys: Sequence[int], low_bits: int, mid_bits: int
) -> Tuple[List[int], List[int], List[int]]:
    """The three columns of keys packed as ``high | mid | low`` bit fields."""
    high_shift = low_bits + mid_bits
    mid_mask = (1 << mid_bits) - 1
    low_mask = (1 << low_bits) - 1
    return (
        [key >> high_shift for key in keys],
        [(key >> low_bits) & mid_mask for key in keys],
        [key & low_mask for key in keys],
    )


#: An overlay row is one packed int64 sequence per node,
#: ``[nf, nb, fwd preds * nf, fwd objs * nf, bwd preds * nb, bwd subjs * nb,
#: undirected neighbours ...]``, each run sorted as the canonical CSR row it
#: stands in for.  Rows stay packed so pickle and the store serialise an
#: overlay with one ``bytes.join``.  This is a tombstone's row.
_EMPTY_ROW = array(_ID, (0, 0))


def _row_pairs(row, forward: bool):
    """The ``(pred id, other endpoint id)`` pairs of a packed row's run."""
    count = row[0] if forward else row[1]
    lo = 2 if forward else 2 + 2 * row[0]
    return zip(row[lo : lo + count], row[lo + count : lo + 2 * count])


def _row_run(row, pred_id: int, forward: bool) -> List[int]:
    """The other-endpoint ids under one predicate of a packed row's run."""
    count = row[0] if forward else row[1]
    lo = 2 if forward else 2 + 2 * row[0]
    start = bisect_left(row, pred_id, lo, lo + count)
    end = bisect_right(row, pred_id, start, lo + count)
    return list(row[start + count : end + count])


class _Overlay:
    """Everything the windows since a canonical snapshot changed.

    Bounded by the session's compaction threshold, so copying one per window
    (the parent stays immutable for the seed and for in-flight workers) is a
    handful of C-level container copies.
    """

    __slots__ = (
        "base",          # the canonical ancestor whose arrays are shared
        "nodes",         # appended nodes; id = len(base._node_of) + index
        "ids",           # appended node -> id
        "dead",          # tombstoned ids (ancestor's or appended)
        "etypes",        # id -> type of appended and of retyped entities
        "preds",         # appended predicates; id = len(base._pred_of) + index
        "pred_ids",      # appended predicate -> id
        "dead_preds",    # interned predicate ids no live triple uses
        "rows",          # id -> packed row of every touched node and tombstone
    )

    def __init__(self, base: "GraphSnapshot") -> None:
        self.base = base
        self.nodes: List[GraphNode] = []
        self.ids: Dict[GraphNode, int] = {}
        self.dead: Set[int] = set()
        self.etypes: Dict[int, str] = {}
        self.preds: List[str] = []
        self.pred_ids: Dict[str, int] = {}
        self.dead_preds: FrozenSet[int] = frozenset()
        self.rows: Dict[int, Sequence[int]] = {}

    def copy(self) -> "_Overlay":
        """A twin whose containers are its own (rows are shared: immutable)."""
        twin = object.__new__(_Overlay)
        for name in _Overlay.__slots__:
            value = getattr(self, name)
            mutable = isinstance(value, (list, dict, set))
            setattr(twin, name, type(value)(value) if mutable else value)
        return twin

    def packed(self) -> Dict[str, object]:
        """The serial form, deterministic for one history: what pickle ships
        inline and what the store writes as a delta file."""
        row_ids = sorted(self.rows)
        rows = [self.rows[row_id] for row_id in row_ids]
        return {
            "nodes": list(self.nodes),
            "preds": list(self.preds),
            "etypes": sorted(self.etypes.items()),
            "dead_preds": sorted(self.dead_preds),
            "dead": array(_ID, sorted(self.dead)),
            "row_ids": array(_ID, row_ids),
            "row_offsets": array(_ID, accumulate(map(len, rows), initial=0)),
            "rows": b"".join(rows),
        }

    @classmethod
    def unpacked(cls, base: "GraphSnapshot", state: Dict[str, object]) -> "_Overlay":
        """Inverse of :meth:`packed` over *base*; rows are views of ``rows``."""
        overlay = cls(base)
        overlay.nodes = list(state["nodes"])
        first = len(base._node_of)
        overlay.ids = {node: first + k for k, node in enumerate(overlay.nodes)}
        overlay.preds = list(state["preds"])
        first = len(base._pred_of)
        overlay.pred_ids = {pred: first + k for k, pred in enumerate(overlay.preds)}
        overlay.etypes = {node_id: etype for node_id, etype in state["etypes"]}
        overlay.dead_preds = frozenset(state["dead_preds"])
        overlay.dead = set(state["dead"])
        flat = memoryview(state["rows"]).cast("B").cast(_ID)
        offsets = state["row_offsets"]
        overlay.rows = {
            row_id: flat[offsets[k] : offsets[k + 1]]
            for k, row_id in enumerate(state["row_ids"])
        }
        return overlay


#: what a patched snapshot takes from its canonical ancestor, by reference
_SHARED = (
    "_node_of", "_id_of", "_num_entities", "_etype_of", "_type_ranges",
    "_pred_of", "_pred_ids",
    "_fwd_offsets", "_fwd_preds", "_fwd_objs",
    "_bwd_offsets", "_bwd_preds", "_bwd_subjs",
    "_und_offsets", "_und_targets",
    "_vindex_offsets", "_vindex_literals", "_vindex_subjects",
)


class GraphSnapshot:
    """An immutable, array-backed compilation of one ``Graph`` version.

    Build with :meth:`GraphSnapshot.build`; the snapshot records the source
    graph's :attr:`~repro.core.graph.Graph.version` so caches can detect
    staleness through the mutation journal.  All write methods of ``Graph``
    are deliberately absent.
    """

    __slots__ = (
        # ``None`` on a canonical snapshot; on a patched one, what changed
        # since the canonical ancestor whose tables and arrays the slots
        # below then hold by reference (see the module docstring)
        "_overlay",
        # --- pickled core: interning tables + CSR arrays ---------------- #
        "version",
        "_node_of",        # id -> node object (entities first, then literals)
        "_id_of",          # node object -> id
        "_num_entities",
        "_etype_of",       # entity id -> type string
        "_type_ranges",    # type -> (lo, hi) contiguous entity-id bucket
        "_pred_of",        # pred id -> predicate string
        "_pred_ids",       # predicate string -> pred id
        "_fwd_offsets", "_fwd_preds", "_fwd_objs",
        "_bwd_offsets", "_bwd_preds", "_bwd_subjs",
        "_und_offsets", "_und_targets",
        # inverted value index: per-predicate (literal id, subject id)
        # postings sorted by (pred, literal, subject) — the blocking layer's
        # flat-key fast path streams one predicate run in a single pass
        "_vindex_offsets", "_vindex_literals", "_vindex_subjects",
        "_num_triples",
        # --- per-process decode, one row per first read (never pickled) - #
        "_obj_map",        # subject eid -> pred -> frozenset of object nodes
        "_subj_map",       # object node -> pred -> frozenset of subject eids
        "_neighbor_map",   # node -> frozenset of undirected neighbour nodes
        "_adjacency",      # id -> tuple of undirected neighbour ids (BFS form)
        "_value_node_set",
        "_buckets",        # type -> {id: entity id}, see type_ids
        # --- snapshot-store backing (set by repro.storage.store) -------- #
        "_store_path",         # file this snapshot is attached to, or None
        "_store_fingerprint",  # content fingerprint recorded in that file
    )

    def __init__(self) -> None:  # pragma: no cover - use GraphSnapshot.build
        raise TypeError("use GraphSnapshot.build(graph) to construct snapshots")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, graph: "Graph | GraphSnapshot") -> "GraphSnapshot":
        """Compile *graph* into a canonical snapshot of its current version.

        Reads what :meth:`Graph.content` answers — the written rows over the
        held snapshot — and leaves the graph as it was: a build publishes
        nothing.  The rows nobody wrote are re-keyed off the held snapshot's
        arrays in id space (:meth:`_keys`), so a compaction decodes no row;
        a snapshot compiles itself that way (that is :meth:`compacted`).
        """
        etypes, values, preds, held, written = graph.content()
        snap = object.__new__(cls)
        snap.version = graph.version

        # the sorted type buckets, concatenated, are the (type, id) order
        by_type: Dict[str, List[str]] = {}
        for eid, etype in etypes.items():
            by_type.setdefault(etype, []).append(eid)
        types = sorted(by_type)
        buckets = [sorted(by_type[etype]) for etype in types]
        node_of: List[GraphNode] = list(chain.from_iterable(buckets))
        ends = list(accumulate(map(len, buckets)))
        snap._num_entities = len(node_of)
        snap._type_ranges = dict(zip(types, zip([0] + ends[:-1], ends)))
        snap._etype_of = tuple(chain.from_iterable(map(repeat, types, map(len, buckets))))
        node_of.extend(sorted(values, key=repr))
        snap._node_of = tuple(node_of)
        snap._id_of = {node: index for index, node in enumerate(node_of)}

        preds = sorted(preds)
        snap._pred_of = tuple(preds)
        snap._pred_ids = {pred: index for index, pred in enumerate(preds)}

        # Triple-major: a triple becomes one integer, (sid, pid, oid) packed
        # into bit fields, so sorting the flat key list sorts the triples and
        # each CSR falls out of a sorted list by counting.  No per-node
        # container is allocated, and ints are invisible to the cycle
        # collector.  Rows come out sorted by (pred, other endpoint), the
        # layout ``patched()`` and the store's segment reuse rely on.  Keys come
        # off the written forward rows (one id lookup per triple, not three)
        # and off the held snapshot's (none per triple).
        num_nodes = len(node_of)
        num_entities = snap._num_entities
        id_of = snap._id_of
        pred_ids = snap._pred_ids
        node_bits = num_nodes.bit_length()
        pred_bits = len(preds).bit_length()
        row_shift = node_bits + pred_bits
        node_mask = (1 << node_bits) - 1

        keys = [
            run | id_of[obj]
            for subject, row in written.items()
            for head in (id_of[subject] << row_shift,)
            for pred, objects in row.items()
            for run in (head | (pred_ids[pred] << node_bits),)
            for obj in objects
        ]
        if held is not None:
            keys += held._keys(id_of, pred_ids, node_bits, row_shift, written)
        keys.sort()
        sids, pids, oids = _unpack(keys, node_bits, pred_bits)
        del keys
        snap._num_triples = len(sids)
        snap._fwd_offsets = _offsets(sids, num_nodes)
        snap._fwd_preds = array(_ID, pids)
        snap._fwd_objs = array(_ID, oids)

        rows, preds_in, subjs = _unpack(
            sorted(
                [
                    (o << row_shift) | (p << node_bits) | s
                    for s, p, o in zip(sids, pids, oids)
                ]
            ),
            node_bits,
            pred_bits,
        )
        snap._bwd_offsets = _offsets(rows, num_nodes)
        snap._bwd_preds = array(_ID, preds_in)
        snap._bwd_subjs = array(_ID, subjs)

        # undirected: both directions of every triple, parallel edges merged
        both = {(s << node_bits) | o for s, o in zip(sids, oids)}
        both.update([(o << node_bits) | s for s, o in zip(sids, oids)])
        keys = sorted(both)
        snap._und_offsets = _offsets([key >> node_bits for key in keys], num_nodes)
        snap._und_targets = array(_ID, [key & node_mask for key in keys])

        # value index: the literal-object triples by (pred, literal, subject)
        runs, literals, subjects = _unpack(
            sorted(
                [
                    (((p << node_bits) | o) << node_bits) | s
                    for s, p, o in zip(sids, pids, oids)
                    if o >= num_entities
                ]
            ),
            node_bits,
            node_bits,
        )
        snap._vindex_offsets = _offsets(runs, len(preds))
        snap._vindex_literals = array(_ID, literals)
        snap._vindex_subjects = array(_ID, subjects)

        snap._reset_lazy()
        return snap

    # ------------------------------------------------------------------ #
    # delta patching
    # ------------------------------------------------------------------ #

    def patched(
        self,
        graph: Graph,
        touched: Iterable[GraphNode],
        written: Optional[Tuple[Mapping, Mapping]] = None,
    ) -> "GraphSnapshot":
        """Compile *graph* from this snapshot and a mutation delta.

        *touched* is the journal window (:meth:`Graph.touched_since`) between
        this snapshot's version and the live graph — a superset of every node
        whose interning or adjacency rows may have changed.  The result reads
        exactly as ``GraphSnapshot.build(graph)`` does on the object surface,
        and on the integer surface after :meth:`node_at` decoding; its
        :meth:`compacted` form is bit-identical to it.

        No id moves.  Nodes and predicates new in the window take the next
        ids, in canonical order of the window's new terms (entities by
        ``(type, id)``, then literals by repr — never set order, so one
        history always assigns the same ids); a node that left the graph
        leaves a tombstone and gets its id back if it returns; a retyped
        entity keeps its id.  The rows of every touched surviving node are
        recomputed from the live graph into the overlay, which is copied
        first so this snapshot stays as it was: O(|touched rows| +
        |overlay|), and nothing scales with the graph.  *written*, from the
        graph that holds this snapshot (:meth:`Graph.snapshot`), is its
        forward and backward written rows: a touched row not in them is
        this snapshot's, taken as it is in id space.

        Raises :class:`~repro.exceptions.SnapshotPatchError` when *touched*
        does not cover the delta.
        """
        overlay = _Overlay(self) if self._overlay is None else self._overlay.copy()
        base_ids, extra_ids = self._id_of, overlay.ids
        base_preds, extra_preds = self._pred_ids, overlay.pred_ids
        first_id = len(self._node_of)
        rows, dead = overlay.rows, overlay.dead
        fwd_offsets = self._fwd_offsets

        def forward_len(node_id: int) -> int:
            row = rows.get(node_id)
            if row is not None:
                return row[0]
            return fwd_offsets[node_id + 1] - fwd_offsets[node_id]

        # -- classify the window: survivors, new terms, tombstones -------- #
        num_triples = self._num_triples
        survivors: List[Tuple[int, GraphNode]] = []
        fresh: List[GraphNode] = []
        regrouped: Set[Optional[str]] = set()  # types whose membership changes
        for node in touched:
            is_entity = is_entity_ref(node)
            alive = graph.has_entity(node) if is_entity else bool(graph.in_row(node))
            node_id = base_ids.get(node)
            if node_id is None:
                node_id = extra_ids.get(node)
            if node_id is None:
                if alive:
                    fresh.append(node)
                continue
            num_triples -= forward_len(node_id)
            if alive:
                survivors.append((node_id, node))
            if alive == (node_id in dead):  # it returns, or it leaves a tombstone
                (dead.discard if alive else dead.add)(node_id)
                if is_entity:
                    regrouped.add(self._etype_at(node_id))
                if not alive:
                    rows[node_id] = _EMPTY_ROW
        fresh.sort(
            key=lambda node: (0, graph.entity_type(node), node)
            if is_entity_ref(node)
            else (1, repr(node), "")
        )
        for node in fresh:
            extra_ids[node] = first_id + len(overlay.nodes)
            survivors.append((extra_ids[node], node))
            overlay.nodes.append(node)

        live_preds = graph.predicates()
        for pred in sorted(live_preds - base_preds.keys() - extra_preds.keys()):
            extra_preds[pred] = len(self._pred_of) + len(overlay.preds)
            overlay.preds.append(pred)
        overlay.dead_preds = frozenset(
            pred_id
            for pred, pred_id in chain(base_preds.items(), extra_preds.items())
            if pred not in live_preds
        )

        # -- recomputed rows for every touched, surviving node ------------ #
        def id_of(node: GraphNode) -> int:
            found = base_ids.get(node)
            return extra_ids[node] if found is None else found

        def pred_id(pred: str) -> int:
            found = base_preds.get(pred)
            return extra_preds[pred] if found is None else found

        num_ids = self.num_interned_nodes

        def pairs(node_id: int, node: GraphNode, forward: bool) -> List[Tuple[int, int]]:
            if written is None:
                found = graph.out_row(node) if forward else graph.in_row(node)
            else:
                found = written[0 if forward else 1].get(node)
                if found is None:
                    return list(self.row_pairs(node_id, forward)) if node_id < num_ids else []
            row: List[Tuple[int, int]] = []
            for pred, others in found.items():
                row.extend(zip(repeat(pred_id(pred)), map(id_of, others)))
            row.sort()
            return row

        etypes, etype_of, num_base_entities = overlay.etypes, self._etype_of, self._num_entities
        try:
            for node_id, node in survivors:
                fwd: List[Tuple[int, int]] = []
                if is_entity_ref(node):
                    fwd = pairs(node_id, node, True)
                    num_triples += len(fwd)
                    etype = graph.entity_type(node)
                    known = etypes.get(node_id)
                    if known is None and node_id < num_base_entities:
                        known = etype_of[node_id]
                    if etype != known:
                        etypes[node_id] = etype
                        regrouped.update((etype, known))
                bwd = pairs(node_id, node, False)
                row = array(_ID, (len(fwd), len(bwd)))
                for column in chain(zip(*fwd), zip(*bwd)):
                    row.extend(column)
                row.extend(sorted({other for _, other in chain(fwd, bwd)}))
                rows[node_id] = row
        except KeyError as missing:
            raise SnapshotPatchError(
                f"snapshot patch drifted: {missing.args[0]!r} is in the live graph "
                f"but not in the delta window"
            ) from None
        if num_triples != graph.num_triples:
            raise SnapshotPatchError(
                f"snapshot patch drifted: {num_triples} forward columns for "
                f"{graph.num_triples} triples (delta window inconsistent)"
            )
        snap = GraphSnapshot._over(overlay, graph.version, num_triples)
        snap._buckets = {t: b for t, b in self._buckets.items() if t not in regrouped}
        return snap

    @classmethod
    def _over(cls, overlay: _Overlay, version: int, num_triples: int) -> "GraphSnapshot":
        """The patched snapshot that is *overlay* over its canonical base."""
        snap = object.__new__(cls)
        for name in _SHARED:
            setattr(snap, name, getattr(overlay.base, name))
        snap.version = version
        snap._num_triples = num_triples
        snap._reset_lazy()
        snap._overlay = overlay
        return snap

    def _keys(
        self,
        id_of: Mapping[GraphNode, int],
        pred_ids: Mapping[str, int],
        node_bits: int,
        row_shift: int,
        skip: Iterable[GraphNode],
    ) -> List[int]:
        """This snapshot's triples whose subject is not in *skip*, packed as
        :meth:`build` packs them under the new interning *id_of* /
        *pred_ids*: one lookup per node and per predicate, none per triple.
        """
        overlay = self._overlay
        extra_nodes, extra_preds, rows = (
            ((), (), {}) if overlay is None else (overlay.nodes, overlay.preds, overlay.rows)
        )
        # a node that left the graph maps to -1: no row kept here names it
        remap = list(map(id_of.get, chain(self._node_of, extra_nodes), repeat(-1)))
        runs = [pred_ids.get(pred, -1) << node_bits for pred in chain(self._pred_of, extra_preds)]
        skipped = set(map(self.id_of, skip))
        # the canonical rows, one subject head per triple (negative: a row
        # the overlay or the writes replace, or a subject that left)
        num_entities, offsets = self._num_entities, self._fwd_offsets
        heads = [new << row_shift for new in remap[:num_entities]]
        for s in skipped.union(rows):
            if s is not None and s < num_entities:
                heads[s] = -1
        counts = map(sub, offsets[1 : num_entities + 1], offsets[:num_entities])
        keys = [
            head | runs[p] | remap[o]
            for head, p, o in zip(
                chain.from_iterable(map(repeat, heads, counts)), self._fwd_preds, self._fwd_objs
            )
            if head >= 0
        ]
        for s, row in rows.items():
            if row[0] and s not in skipped:  # a forward run: a live entity's
                head = remap[s] << row_shift
                keys += [head | runs[p] | remap[o] for p, o in _row_pairs(row, True)]
        return keys

    def compacted(self) -> "GraphSnapshot":
        """This snapshot in canonical form, bit-identical to ``build(graph)``.

        A canonical snapshot is its own compaction; a patched one is
        recompiled off its own read surface, which is all ``build`` needs.
        """
        return self if self._overlay is None else GraphSnapshot.build(self)

    @property
    def lineage(self) -> "GraphSnapshot":
        """The canonical snapshot whose ids this one keeps (ids never move
        within a lineage; a build or a compaction starts a new one)."""
        return self if self._overlay is None else self._overlay.base

    @property
    def overlay_rows(self) -> int:
        """Rows held outside the canonical arrays: touched nodes plus
        tombstones since the canonical ancestor (0 on a canonical snapshot)."""
        return 0 if self._overlay is None else len(self._overlay.rows)

    def _reset_lazy(self) -> None:
        self._overlay = None
        self._store_path = None
        self._store_fingerprint = None
        self._obj_map = {}
        self._subj_map = {}
        self._neighbor_map = {}
        self._adjacency = {}
        self._value_node_set = None
        self._buckets = {}

    # ------------------------------------------------------------------ #
    # pickling: compact arrays only, rows decoded again per process
    # ------------------------------------------------------------------ #

    # _id_of is deliberately absent: it is exactly {node: i for i, node in
    # enumerate(_node_of)} and is rebuilt on unpickle, so worker payloads
    # carry the interning table once, not twice.
    _PICKLED = ("version", "_num_triples") + tuple(n for n in _SHARED if n != "_id_of")

    def __getstate__(self) -> Dict[str, object]:
        state = {}
        for name in self._PICKLED:
            value = getattr(self, name)
            if isinstance(value, (array, memoryview)):
                # ids and offsets (a store load's mmap views too) below 2**32
                # ship as their low 4-byte halves; __setstate__ widens them
                halves = memoryview(value).cast("B").cast("I")
                high = halves[1 - _LOW :: 2].tobytes()
                fits = high == bytes(len(high))
                value = array("I", halves[_LOW::2].tobytes()) if fits else array(_ID, value)
            state[name] = value
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            if isinstance(value, array) and value.typecode == "I":
                wide = array(_ID, bytes(8 * len(value)))
                memoryview(wide).cast("B").cast("I")[_LOW::2] = value
                value = wide
            object.__setattr__(self, name, value)
        # states pickled before the value index existed: degrade gracefully
        # (value_postings reports None and consumers fall back to traversal)
        for name in ("_vindex_offsets", "_vindex_literals", "_vindex_subjects"):
            if name not in state:
                object.__setattr__(self, name, None)
        self._id_of = {node: index for index, node in enumerate(self._node_of)}
        self._reset_lazy()

    def __reduce__(self):
        overlay = self._overlay
        if overlay is not None:
            # the ancestor (a path stub when it is store-backed) plus the
            # overlay inline, never a delta file's path: two histories that
            # reach one fingerprint write different delta bytes under one
            # name, and only the sender's own overlay has the ids that what
            # ships beside the snapshot (id-encoded neighbourhoods) is in
            return (
                _restore_patched,
                (overlay.base, overlay.packed(), self.version, self._num_triples),
            )
        if self._store_path is not None and os.path.isfile(self._store_path):
            # attach-by-path: ship the store file path (a few hundred bytes),
            # not the arrays — the receiving process mmaps the same file, so
            # every worker on a machine shares one physical copy.  A graph's
            # held snapshot outlives the store that saved it (sessions over
            # the graph and its copies share it), so only while the file is
            # there; else the arrays ship inline
            return (
                _attach_stored_snapshot,
                (self._store_path, self._store_fingerprint, self.version),
            )
        return (_restore_snapshot, (self.__getstate__(),))

    # ------------------------------------------------------------------ #
    # snapshot-store backing
    # ------------------------------------------------------------------ #

    def _mark_stored(self, path: str, fingerprint: str) -> None:
        """Attach this snapshot to its on-disk store file (see ``__reduce__``)."""
        self._store_path = path
        self._store_fingerprint = fingerprint

    @property
    def store_path(self) -> Optional[str]:
        """The snapshot-store file backing this snapshot, or ``None``."""
        return self._store_path

    @property
    def store_fingerprint(self) -> Optional[str]:
        """The content fingerprint recorded in the backing file, or ``None``."""
        return self._store_fingerprint

    # ------------------------------------------------------------------ #
    # interning surface
    # ------------------------------------------------------------------ #

    def id_of(self, node: GraphNode) -> Optional[int]:
        """The interned id of *node*, or ``None`` when it is not in the graph."""
        found = self._id_of.get(node)
        overlay = self._overlay
        if overlay is not None:
            if found is None:
                found = overlay.ids.get(node)
            if found in overlay.dead:
                return None
        return found

    def node_at(self, node_id: int) -> GraphNode:
        """The node object with interned id *node_id*."""
        if self._overlay is not None and node_id >= len(self._node_of):
            return self._overlay.nodes[node_id - len(self._node_of)]
        return self._node_of[node_id]

    def pred_id(self, predicate: str) -> int:
        """The interned predicate id (``-1`` for unknown predicates)."""
        found = self._pred_ids.get(predicate)
        if found is None and self._overlay is not None:
            found = self._overlay.pred_ids.get(predicate)
        return -1 if found is None else found

    def _pred_at(self, pred_id: int) -> str:
        if self._overlay is not None and pred_id >= len(self._pred_of):
            return self._overlay.preds[pred_id - len(self._pred_of)]
        return self._pred_of[pred_id]

    def type_ids(self, etype: str) -> Dict[int, str]:
        """The ids of the entities of type *etype*, as a bucket.

        A bucket supports ``in``, ``len`` and iteration over the ids (with
        ``items()``, over id and entity id) in sorted entity-id order, in
        either form, and is to be used for nothing else.  (It is the read-only dict ``id -> entity id``: a hash probe
        tests membership faster than any range object.)  Built on first use
        and handed on by :meth:`patched` to the next window unless that
        window changed the type's membership.
        """
        bucket = self._buckets.get(etype)
        if bucket is None:
            lo, hi = self._type_ranges.get(etype, (0, 0))
            if self._overlay is None:
                bucket = dict(zip(range(lo, hi), self._node_of[lo:hi]))
            else:
                moved, dead = self._overlay.etypes, self._overlay.dead
                ids = [i for i in range(lo, hi) if i not in moved]
                ids += [i for i, t in moved.items() if t == etype]
                members = sorted((self.node_at(i), i) for i in ids if i not in dead)
                bucket = {i: eid for eid, i in members}
            self._buckets[etype] = bucket
        return bucket

    def is_literal_id(self, node_id: int) -> bool:
        """Whether the interned *node_id* is a value node's."""
        if node_id < len(self._node_of):
            return node_id >= self._num_entities
        return not is_entity_ref(self.node_at(node_id))

    @property
    def num_interned_nodes(self) -> int:
        """Size of the id space: every id is below it.  On a patched
        snapshot that counts tombstones, so it can exceed ``num_nodes``."""
        if self._overlay is None:
            return len(self._node_of)
        return len(self._node_of) + len(self._overlay.nodes)

    def decode_ids(self, ids: Iterable[int]) -> Set[GraphNode]:
        """Decode interned ids back into a set of node objects."""
        if self._overlay is not None:
            return set(map(self.node_at, ids))
        node_of = self._node_of
        return {node_of[i] for i in ids}

    def encode_nodes(self, nodes: Iterable[GraphNode]) -> array:
        """Encode node objects into a sorted array of interned ids."""
        if self._overlay is not None:
            return array(_ID, sorted(map(self.id_of, nodes)))
        id_of = self._id_of
        return array(_ID, sorted(id_of[node] for node in nodes))

    def placement_key(self, key: object) -> object:
        """Map shuffle/placement keys onto interned ids.

        Entity ids and value nodes become their interned integer id, tuples
        map component-wise (candidate pairs become ``(id1, id2)``); anything
        unknown passes through unchanged.  Feeding interned ids (not bulky
        reprs) to :func:`~repro.runtime.partition.stable_hash` keeps worker
        placement deterministic while hashing a handful of digits.
        """
        if isinstance(key, tuple) and not isinstance(key, Literal):
            return tuple(self.placement_key(item) for item in key)
        mapped = self._id_of.get(key) if self._overlay is None else self.id_of(key)
        return key if mapped is None else mapped

    # ------------------------------------------------------------------ #
    # integer-space adjacency (compiled hot paths)
    # ------------------------------------------------------------------ #

    def out_ids(self, node_id: int, pred_id: int) -> List[int]:
        """Object ids of ``(node, pred, o)`` straight off the row.

        The forward row is sorted by ``(pred, obj)``, so one bisection
        isolates the predicate run — O(log row + matches) per call and
        nothing memoised, which is what signature traversal and incremental
        rebasing want.
        """
        overlay = self._overlay
        if overlay is not None and (row := overlay.rows.get(node_id)) is not None:
            return _row_run(row, pred_id, True)
        offsets, preds, objs = self._fwd_offsets, self._fwd_preds, self._fwd_objs
        lo, hi = offsets[node_id], offsets[node_id + 1]
        start = bisect_left(preds, pred_id, lo, hi)
        end = bisect_right(preds, pred_id, start, hi)
        return list(objs[start:end])

    def in_ids(self, node_id: int, pred_id: int) -> List[int]:
        """Subject ids of ``(s, pred, node)`` straight off the row."""
        overlay = self._overlay
        if overlay is not None and (row := overlay.rows.get(node_id)) is not None:
            return _row_run(row, pred_id, False)
        offsets, preds, subjs = self._bwd_offsets, self._bwd_preds, self._bwd_subjs
        lo, hi = offsets[node_id], offsets[node_id + 1]
        start = bisect_left(preds, pred_id, lo, hi)
        end = bisect_right(preds, pred_id, start, hi)
        return list(subjs[start:end])

    def row_pairs(self, node_id: int, forward: bool):
        """The ``(pred id, other endpoint id)`` pairs of one forward /
        backward row, overlay first, sorted by ``(pred id, other id)``."""
        overlay = self._overlay
        if overlay is not None and (row := overlay.rows.get(node_id)) is not None:
            return _row_pairs(row, forward)
        if forward:
            offsets, preds, others = self._fwd_offsets, self._fwd_preds, self._fwd_objs
        else:
            offsets, preds, others = self._bwd_offsets, self._bwd_preds, self._bwd_subjs
        lo, hi = offsets[node_id], offsets[node_id + 1]
        return zip(preds[lo:hi], others[lo:hi])

    def value_postings(self, pred_id: int):
        """The inverted value-index run of *pred_id*.

        Returns ``(literal ids, subject ids)`` — two parallel id sequences
        covering every triple of that predicate whose object is a literal —
        or ``None`` when the predicate is unknown or this snapshot carries no
        value index (instances unpickled from pre-index states).  A canonical
        run is sorted by ``(literal, subject)``.  A patched one is merged
        here, on read: the ancestor's run without the subjects the overlay
        holds a row for, then those rows' own postings, in no promised order.
        """
        offsets = getattr(self, "_vindex_offsets", None)
        if offsets is None or pred_id < 0:
            return None
        overlay = self._overlay
        if pred_id >= len(offsets) - 1:
            if overlay is None or pred_id >= len(offsets) - 1 + len(overlay.preds):
                return None
            literals, subjects = (), ()
        else:
            lo, hi = offsets[pred_id], offsets[pred_id + 1]
            literals, subjects = self._vindex_literals[lo:hi], self._vindex_subjects[lo:hi]
        if overlay is None:
            return literals, subjects
        rows = overlay.rows
        kept = [(lit, sid) for lit, sid in zip(literals, subjects) if sid not in rows]
        is_literal_id = self.is_literal_id
        for sid, row in rows.items():
            if row[0]:
                kept.extend(
                    (oid, sid) for oid in _row_run(row, pred_id, True) if is_literal_id(oid)
                )
        return [lit for lit, _ in kept], [sid for _, sid in kept]

    def adjacency(self, node_id: int) -> Tuple[int, ...]:
        """The undirected neighbour ids of *node_id* (the BFS working form).

        One row, decoded on first read; the CSR arrays (and the overlay's
        packed rows) remain the pickled representation.
        """
        row = self._adjacency.get(node_id)
        if row is None:
            overlay = self._overlay
            if overlay is not None and (packed := overlay.rows.get(node_id)) is not None:
                row = tuple(packed[2 + 2 * (packed[0] + packed[1]) :])
            else:
                offsets = self._und_offsets
                row = tuple(self._und_targets[offsets[node_id] : offsets[node_id + 1]])
            self._adjacency[node_id] = row
        return row

    #: Above this node count, the BFS visited-set switches from a bytearray
    #: (O(num_nodes) allocation per call, unbeatable per-edge cost) to an int
    #: set (allocation proportional to the neighbourhood, not the graph).
    FLAG_BFS_LIMIT = 1 << 16

    def neighborhood_ids(self, root_id: int, radius: int) -> List[int]:
        """The interned ids within *radius* undirected hops of *root_id*.

        A pure integer BFS (ids returned in BFS order, root first) — no node
        objects are hashed while exploring.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        result = [root_id]
        if radius == 0:
            return result
        adjacency = self.adjacency
        num_ids = len(self._node_of) if self._overlay is None else self.num_interned_nodes
        use_flags = num_ids <= self.FLAG_BFS_LIMIT
        if use_flags:
            flags = bytearray(num_ids)
            flags[root_id] = 1
        else:
            seen = {root_id}
        frontier = result
        for _ in range(radius):
            next_frontier: List[int] = []
            append = next_frontier.append
            if use_flags:
                for node in frontier:
                    for nbr in adjacency(node):
                        if not flags[nbr]:
                            flags[nbr] = 1
                            append(nbr)
            else:
                for node in frontier:
                    for nbr in adjacency(node):
                        if nbr not in seen:
                            seen.add(nbr)
                            append(nbr)
            if not next_frontier:
                break
            result += next_frontier
            frontier = next_frontier
        return result

    def neighborhood_nodes(self, entity: str, radius: int) -> Set[GraphNode]:
        """The d-neighbourhood of *entity* as a set of node objects."""
        ids = self.neighborhood_ids(self._entity_index(entity), radius)
        if self._overlay is not None:
            return set(map(self.node_at, ids))
        if len(ids) == 1:
            return {self._node_of[ids[0]]}
        return set(_itemgetter(*ids)(self._node_of))

    # ------------------------------------------------------------------ #
    # Graph read surface (duck-type compatible)
    # ------------------------------------------------------------------ #

    @property
    def num_entities(self) -> int:
        overlay = self._overlay
        if overlay is None:
            return self._num_entities
        arrived = {i for node, i in overlay.ids.items() if is_entity_ref(node)}
        gone = sum(1 for i in overlay.dead if i < self._num_entities or i in arrived)
        return self._num_entities + len(arrived) - gone

    @property
    def num_triples(self) -> int:
        return self._num_triples

    @property
    def num_nodes(self) -> int:
        if self._overlay is None:
            return len(self._node_of)
        return self.num_interned_nodes - len(self._overlay.dead)  # every tombstone is an id

    def __len__(self) -> int:
        return self._num_triples

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Triple):
            return self.has_triple(item.subject, item.predicate, item.obj)
        if isinstance(item, str):
            return self.has_entity(item)
        return False

    def has_entity(self, eid: str) -> bool:
        if self._overlay is not None:
            return is_entity_ref(eid) and self.id_of(eid) is not None
        index = self._id_of.get(eid)
        return index is not None and index < self._num_entities

    def _entity_index(self, eid: str) -> int:
        index = None
        if isinstance(eid, str):  # so an interned id is an entity's, in either form
            index = self._id_of.get(eid) if self._overlay is None else self.id_of(eid)
        if index is None:
            raise UnknownEntityError(str(eid))
        return index

    def _etype_at(self, index: int) -> str:
        if self._overlay is not None:
            etype = self._overlay.etypes.get(index)
            if etype is not None:
                return etype
        return self._etype_of[index]

    def entity(self, eid: str) -> Entity:
        return Entity(eid, self._etype_at(self._entity_index(eid)))

    def entity_type(self, eid: str) -> str:
        index = self._entity_index(eid)
        return self._etype_of[index] if self._overlay is None else self._etype_at(index)

    def _live_ids(self, entities: bool) -> Iterator[int]:
        """The ids of a patched snapshot's live entities, or live values."""
        overlay = self._overlay
        dead = overlay.dead
        split, first = self._num_entities, len(self._node_of)
        for index in range(split) if entities else range(split, first):
            if index not in dead:
                yield index
        for index, node in enumerate(overlay.nodes, first):
            if is_entity_ref(node) == entities and index not in dead:
                yield index

    def entities(self) -> Iterator[Entity]:
        live = range(self._num_entities) if self._overlay is None else self._live_ids(True)
        for index in live:
            yield Entity(self.node_at(index), self._etype_at(index))

    def entity_ids(self) -> Iterator[str]:
        base = self._node_of[: self._num_entities]
        overlay = self._overlay
        if overlay is None:
            return iter(base)
        dead = overlay.dead  # the ancestor's entities are walked at C speed
        if any(index < len(base) for index in dead):
            base = [node for index, node in enumerate(base) if index not in dead]
        arrived = [n for n, i in overlay.ids.items() if is_entity_ref(n) and i not in dead]
        return chain(base, arrived)

    def entities_of_type(self, etype: str) -> List[str]:
        if self._overlay is not None:
            return list(self.type_ids(etype).values())
        lo, hi = self._type_ranges.get(etype, (0, 0))
        return list(self._node_of[lo:hi])

    def types(self) -> Set[str]:
        overlay = self._overlay
        if overlay is None:
            return set(self._type_ranges.keys())
        known = chain(self._type_ranges, overlay.etypes.values())
        return {etype for etype in known if self.type_ids(etype)}

    def predicates(self) -> Set[str]:
        overlay = self._overlay
        if overlay is None:
            return set(self._pred_of)
        dead = overlay.dead_preds
        return {
            pred
            for pred, pred_id in chain(self._pred_ids.items(), overlay.pred_ids.items())
            if pred_id not in dead
        }

    def value_nodes(self) -> FrozenSet[Literal]:
        if self._value_node_set is None:
            if self._overlay is not None:
                values = map(self.node_at, self._live_ids(False))
            else:
                values = self._node_of[self._num_entities :]
            self._value_node_set = frozenset(values)
        return self._value_node_set

    def triples(self) -> Iterator[Triple]:
        for subject, row in self.out_rows():
            for pred, objects in row.items():
                for obj in objects:
                    yield Triple(subject, pred, obj)

    def snapshot(self) -> "GraphSnapshot":
        """A snapshot is its own published form (see :meth:`Graph.snapshot`)."""
        return self

    def content(self) -> Tuple[Dict[str, str], FrozenSet[Literal], Set[str], "GraphSnapshot", Dict]:
        """What :meth:`build` compiles, as :meth:`Graph.content` answers it:
        this snapshot stands for every row, none is written."""
        etypes = {entity.eid: entity.etype for entity in self.entities()}
        return etypes, self.value_nodes(), self.predicates(), self, {}

    # -- decoded adjacency rows (one row per first read, per process) ---- #

    def _row_at(self, index: int, forward: bool, into: type = list) -> Dict[str, Collection]:
        """One forward / backward row decoded, ``pred -> nodes`` (a list in
        id order, or a set when *into* is ``set``), not memoised."""
        per_pred: Dict[str, Collection] = {}
        add = into.append if into is list else into.add
        if self._overlay is not None:
            node_at, pred_at = self.node_at, self._pred_at
            for pid, other in self.row_pairs(index, forward):
                add(per_pred.setdefault(pred_at(pid), into()), node_at(other))
        else:
            if forward:
                offsets, preds, others = self._fwd_offsets, self._fwd_preds, self._fwd_objs
            else:
                offsets, preds, others = self._bwd_offsets, self._bwd_preds, self._bwd_subjs
            node_of, pred_of = self._node_of, self._pred_of
            for i in range(offsets[index], offsets[index + 1]):
                add(per_pred.setdefault(pred_of[preds[i]], into()), node_of[others[i]])
        return per_pred

    def row_copy(self, node: GraphNode, forward: bool) -> Dict[str, Set[GraphNode]]:
        """A mutable copy of *node*'s forward / backward row, ``pred -> node
        set`` (what a ``Graph`` writes into): off the row a reader decoded,
        else off the arrays, memoising nothing."""
        row = (self._obj_map if forward else self._subj_map).get(node)
        if row is not None:
            return {pred: set(found) for pred, found in row.items()}
        index = self._id_of.get(node) if self._overlay is None else self.id_of(node)
        return {} if index is None else self._row_at(index, forward, set)

    def _decode_row(self, node: GraphNode, forward: bool) -> Mapping[str, frozenset]:
        """Decode and memoise one forward / backward row: ``pred -> node set``."""
        index = self._id_of.get(node) if self._overlay is None else self.id_of(node)
        if index is None:
            return _NO_ROW
        row = {pred: frozenset(found) for pred, found in self._row_at(index, forward).items()}
        (self._obj_map if forward else self._subj_map)[node] = row
        return row

    def out_rows(self) -> Iterator[Tuple[str, Dict[str, List[GraphNode]]]]:
        """Every non-empty forward row as ``(subject, {pred: objects})``, not
        memoised: :meth:`build` compiles a patched snapshot off these."""
        live = range(self._num_entities) if self._overlay is None else self._live_ids(True)
        for index in live:
            if row := self._row_at(index, True):
                yield self.node_at(index), row

    def out_row(self, subject: GraphNode) -> Mapping[str, FrozenSet[GraphNode]]:
        """The forward row of *subject*, ``{pred: objects}``, decoded once."""
        row = self._obj_map.get(subject)
        return self._decode_row(subject, True) if row is None else row

    def in_row(self, obj: GraphNode) -> Mapping[str, FrozenSet[str]]:
        """The backward row of *obj*, ``{pred: subjects}``, decoded once."""
        row = self._subj_map.get(obj)
        return self._decode_row(obj, False) if row is None else row

    def objects(self, subject: str, predicate: str) -> FrozenSet[GraphNode]:
        row = self._obj_map.get(subject)
        if row is None:
            row = self._decode_row(subject, True)
        return row.get(predicate, _EMPTY_NODES)

    def subjects(self, predicate: str, obj: GraphNode) -> FrozenSet[str]:
        row = self._subj_map.get(obj)
        if row is None:
            row = self._decode_row(obj, False)
        return row.get(predicate, _EMPTY_NODES)

    def has_triple(self, subject: str, predicate: str, obj: GraphNode) -> bool:
        return obj in self.objects(subject, predicate)

    def neighbors(self, node: GraphNode) -> FrozenSet[GraphNode]:
        found = self._neighbor_map.get(node)
        if found is None:
            canonical = self._overlay is None
            index = self._id_of.get(node) if canonical else self.id_of(node)
            if index is None:
                return _EMPTY_NODES
            node_at = self._node_of.__getitem__ if canonical else self.node_at
            found = frozenset(map(node_at, self.adjacency(index)))
            self._neighbor_map[node] = found
        return found

    def degree(self, node: GraphNode) -> int:
        index = self.id_of(node)
        if index is None:
            return 0
        if self._overlay is not None:
            return len(self.adjacency(index))
        return self._und_offsets[index + 1] - self._und_offsets[index]

    def out_triples(self, subject: str) -> FrozenSet[Triple]:
        row = self.out_row(subject)
        return frozenset(Triple(subject, p, obj) for p, objs in row.items() for obj in objs)

    def in_triples(self, obj: GraphNode) -> FrozenSet[Triple]:
        row = self.in_row(obj)
        return frozenset(Triple(subj, p, obj) for p, subjs in row.items() for subj in subjs)

    def stats(self) -> Dict[str, int]:
        """Summary counts; ``decoded_rows`` is what this process has read so far.

        It counts the CSR rows decoded and memoised on first read — forward
        and backward rows (object space) and undirected rows (the BFS
        form).  A freshly built, patched, loaded or unpickled snapshot starts at zero.
        """
        return {
            "decoded_rows": (
                len(self._obj_map) + len(self._subj_map) + len(self._adjacency)
            ),
            "entities": self.num_entities,
            "values": self.num_nodes - self.num_entities,
            "nodes": self.num_nodes,
            "triples": self.num_triples,
            "types": len(self.types()),
            "predicates": len(self.predicates()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSnapshot(version={self.version}, entities={self.num_entities}, "
            f"triples={self.num_triples}, types={len(self.types())})"
        )


def _restore_snapshot(state: Dict[str, object]) -> GraphSnapshot:
    snap = object.__new__(GraphSnapshot)
    snap.__setstate__(state)
    return snap


def _restore_patched(
    base: GraphSnapshot, packed: Dict[str, object], version: int, num_triples: int
) -> GraphSnapshot:
    return GraphSnapshot._over(_Overlay.unpacked(base, packed), version, num_triples)


def _attach_stored_snapshot(path: str, fingerprint, graph_version) -> GraphSnapshot:
    """Unpickle hook for store-backed snapshots: re-attach by ``mmap``.

    The file is re-validated against the fingerprint and ``Graph.version``
    recorded at pickling time, so a swapped or stale file raises a typed
    :class:`~repro.exceptions.StoreError` instead of silently diverging.
    """
    from .store import read_snapshot  # local import: store imports this module

    return read_snapshot(
        path, expect_fingerprint=fingerprint, expect_graph_version=graph_version
    )
