"""``GraphSnapshot``: an immutable, interned, CSR-backed view of a ``Graph``.

The snapshot assigns every node a dense integer id:

* entity ids come first, sorted by ``(type, entity id)`` — so the entities of
  one type occupy a *contiguous id range* (the type bucket), and within a
  bucket ids follow the sorted entity-id order that
  :meth:`~repro.core.graph.Graph.entities_of_type` reports;
* value nodes (:class:`~repro.core.triples.Literal`) follow, sorted by repr.

Predicates are interned the same way.  Adjacency is stored in CSR form
(offset + column arrays over node ids): forward ``(pred, obj)`` runs per
subject, backward ``(pred, subj)`` runs per object, and a deduplicated
undirected neighbour list per node that drives the d-neighbourhood BFS in
pure integer space.

Two API surfaces coexist:

* the **read surface of Graph** (``entity_type``, ``objects``, ``subjects``,
  ``has_triple``, ``neighbors``, ...), duck-type compatible so every existing
  read-side consumer — the guided evaluator, the pairing fixpoint, the
  declarative matcher, the product graph — runs on a snapshot unchanged;
* an **integer-space surface** (``objects_ids``, ``subjects_ids``,
  ``neighborhood_ids``, ``type_range``, ``repr_rank``) used by the compiled
  hot paths (CSR BFS, the compiled VF2 matcher).

Pickling ships only the compact arrays and interning tables.  Nothing is
decoded up front: the object-space surface decodes and memoises one CSR row
the first time that row is read, in each process, so a reader pays for the
rows it touches and never for the graph (``stats()["decoded_rows"]``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import merge as _heap_merge
from itertools import accumulate
from operator import itemgetter as _itemgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.graph import Graph
from ..core.triples import Entity, GraphNode, Literal, Triple, is_entity_ref
from ..exceptions import UnknownEntityError

#: Array typecode for node/predicate ids and CSR offsets.
_ID = "q"

#: The empty candidate set returned for unknown (node, predicate) lookups.
_EMPTY_IDS: FrozenSet[int] = frozenset()
_EMPTY_NODES: FrozenSet[GraphNode] = frozenset()
#: The decoded row of a node the graph does not hold (never memoised).
_NO_ROW: Dict[str, frozenset] = {}


def _copy_ids(dst: array, src, lo: int, hi: int, remap) -> None:
    """Append ``src[lo:hi]`` to *dst*, translating ids through *remap*.

    With ``remap=None`` (identity) the copy is a C-level splice — array
    slices for in-memory snapshots, a buffer copy for mmap-backed ones.
    """
    if lo == hi:
        return
    if remap is None:
        if isinstance(src, array):
            dst.extend(src[lo:hi])
        else:  # memoryview over a store mapping
            dst.frombytes(src[lo:hi].tobytes())
    else:
        dst.extend([remap[x] for x in src[lo:hi]])


def _fill_offsets(
    offsets: array, old_offsets, span_start: int, span_end: int,
    old_start: int, old_end: int, base: int,
) -> None:
    """Fill ``offsets[span_start+1 : span_end+1]`` from a copied old span.

    Spans cover *consecutive* old rows (``old_start`` .. ``old_end - 1``) by
    construction, so the new offsets are the old ones shifted by *base*.
    """
    for index in range(span_start, span_end):
        offsets[index + 1] = base + old_offsets[old_start + 1 + index - span_start]


def _splice_csr2(
    old_offsets, old_a, old_b, touched_rows, old_for_new, a_remap, b_remap, num_rows
) -> Tuple[array, array, array]:
    """Rebuild a two-column CSR by splicing old spans with recomputed rows.

    *touched_rows* maps new row ids to recomputed ``(a, b)`` pair lists;
    every other row is copied from its old row (``old_for_new`` gives the
    old id per new id, ``None`` meaning identity), batching maximal spans of
    consecutive old rows into single copies.
    """
    offsets = array(_ID, bytes(8 * (num_rows + 1)))
    new_a = array(_ID)
    new_b = array(_ID)
    total = 0
    row = 0
    while row < num_rows:
        pairs = touched_rows.get(row)
        if pairs is not None:
            for a, b in pairs:
                new_a.append(a)
                new_b.append(b)
            total += len(pairs)
            offsets[row + 1] = total
            row += 1
            continue
        span_start = row
        old_start = row if old_for_new is None else old_for_new[row]
        old_end = old_start + 1
        row += 1
        while row < num_rows and row not in touched_rows:
            old_id = row if old_for_new is None else old_for_new[row]
            if old_id != old_end:
                break
            old_end += 1
            row += 1
        lo, hi = old_offsets[old_start], old_offsets[old_end]
        _copy_ids(new_a, old_a, lo, hi, a_remap)
        _copy_ids(new_b, old_b, lo, hi, b_remap)
        base = total - lo
        _fill_offsets(offsets, old_offsets, span_start, row, old_start, old_end, base)
        total = base + hi
    return offsets, new_a, new_b


def _splice_csr1(
    old_offsets, old_targets, touched_rows, old_for_new, remap, num_rows
) -> Tuple[array, array]:
    """Single-column variant of :func:`_splice_csr2` (undirected adjacency)."""
    offsets = array(_ID, bytes(8 * (num_rows + 1)))
    targets = array(_ID)
    total = 0
    row = 0
    while row < num_rows:
        members = touched_rows.get(row)
        if members is not None:
            targets.extend(members)
            total += len(members)
            offsets[row + 1] = total
            row += 1
            continue
        span_start = row
        old_start = row if old_for_new is None else old_for_new[row]
        old_end = old_start + 1
        row += 1
        while row < num_rows and row not in touched_rows:
            old_id = row if old_for_new is None else old_for_new[row]
            if old_id != old_end:
                break
            old_end += 1
            row += 1
        lo, hi = old_offsets[old_start], old_offsets[old_end]
        _copy_ids(targets, old_targets, lo, hi, remap)
        base = total - lo
        _fill_offsets(offsets, old_offsets, span_start, row, old_start, old_end, base)
        total = base + hi
    return offsets, targets


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


class GraphSnapshot:
    """An immutable, array-backed compilation of one ``Graph`` version.

    Build with :meth:`GraphSnapshot.build`; the snapshot records the source
    graph's :attr:`~repro.core.graph.Graph.version` so caches can detect
    staleness through the mutation journal.  All write methods of ``Graph``
    are deliberately absent.
    """

    __slots__ = (
        # --- patch provenance (never pickled): table segments proven
        # byte-identical to the patch base, so the store's segment-level
        # patch writer skips re-serializing them ------------------------- #
        "_unchanged_tables",
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
        "_int_objects",    # (subject id, pred id) -> frozenset of object ids
        "_int_subjects",   # (object id, pred id) -> frozenset of subject ids
        "_adjacency",      # id -> tuple of undirected neighbour ids (BFS form)
        "_value_node_set",
        "_repr_ranks",     # id -> rank of the node in global repr order
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
    def build(cls, graph: Graph) -> "GraphSnapshot":
        """Compile *graph* into a snapshot of its current version."""
        snap = object.__new__(cls)
        snap.version = graph.version

        entities = sorted(graph.entities(), key=lambda e: (e.etype, e.eid))
        literals = sorted(graph.value_nodes(), key=repr)
        node_of: List[GraphNode] = [e.eid for e in entities]
        node_of.extend(literals)
        snap._node_of = tuple(node_of)
        snap._id_of = {node: index for index, node in enumerate(node_of)}
        snap._num_entities = len(entities)
        snap._etype_of = tuple(e.etype for e in entities)

        type_ranges: Dict[str, Tuple[int, int]] = {}
        start = 0
        for index, entity in enumerate(entities):
            if index == 0 or entity.etype != entities[index - 1].etype:
                start = index
            type_ranges[entity.etype] = (start, index + 1)
        snap._type_ranges = type_ranges

        preds = sorted(graph.predicates())
        snap._pred_of = tuple(preds)
        snap._pred_ids = {pred: index for index, pred in enumerate(preds)}

        # Triple-major: a triple becomes one integer, (sid, pid, oid) packed
        # into bit fields, so sorting the flat key list sorts the triples and
        # each CSR falls out of a sorted list by counting.  No per-node
        # container is allocated, and ints are invisible to the cycle
        # collector.  Rows come out sorted by (pred, other endpoint), the
        # layout ``patched()`` and the store's segment reuse rely on.
        num_nodes = len(node_of)
        num_entities = snap._num_entities
        id_of = snap._id_of
        pred_ids = snap._pred_ids
        node_bits = num_nodes.bit_length()
        pred_bits = len(preds).bit_length()
        row_shift = node_bits + pred_bits
        node_mask = (1 << node_bits) - 1

        sids, pids, oids = _unpack(
            sorted(
                [
                    (id_of[s] << row_shift) | (pred_ids[p] << node_bits) | id_of[o]
                    for s, p, o in graph.triples()
                ]
            ),
            node_bits,
            pred_bits,
        )
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

    def patched(self, graph: Graph, touched: Iterable[GraphNode]) -> "GraphSnapshot":
        """Compile *graph* by splicing this snapshot with a mutation delta.

        *touched* is the journal window (:meth:`Graph.touched_since`) between
        this snapshot's version and the live graph — a superset of every node
        whose interning or adjacency rows may have changed.  The result is
        **bit-identical** to ``GraphSnapshot.build(graph)``: the same
        canonical interning order (entities by ``(type, id)``, literals by
        repr) and the same array contents, which is what lets the store
        patch files segment-by-segment and keeps every downstream consumer
        (blocking vindex scans, compiled VF2 type ranges, placement keys)
        oblivious to how the snapshot was produced.

        Cost is O(|touched rows| + |V|) with small, mostly C-level constants
        (array splices, one remap pass) instead of ``build()``'s
        per-triple Python object work: new terms are interned into the old
        order by merge, surviving ids get a monotone old→new remap, and only
        the rows of touched nodes are recomputed from the live graph.
        """
        if self._vindex_offsets is None:  # pre-vindex pickle: nothing to splice
            return GraphSnapshot.build(graph)

        id_of = self._id_of
        node_of = self._node_of
        etype_of = self._etype_of
        num_entities = self._num_entities
        num_nodes = len(node_of)

        touched_set = set(touched)
        # A retype moves an interned id to another type bucket — the only
        # non-monotone id move a delta can cause.  Rows referencing the moved
        # id would re-sort around it, so its neighbours join the recompute
        # set (any *removed* neighbour edge already touched both endpoints).
        retype_neighbors: Set[GraphNode] = set()
        for node in touched_set:
            if is_entity_ref(node):
                old = id_of.get(node)
                if (
                    old is not None
                    and graph.has_entity(node)
                    and graph.entity_type(node) != etype_of[old]
                ):
                    retype_neighbors |= graph.neighbors(node)
        touched_set |= retype_neighbors

        touched_entities: List[str] = []
        touched_literals: List[Literal] = []
        for node in touched_set:
            if is_entity_ref(node):
                touched_entities.append(node)
            else:
                touched_literals.append(node)

        # -- classify the delta: dead old ids, new interned terms -------- #
        dead: Set[int] = set()
        ent_inserts: List[Tuple[str, str]] = []  # (etype, eid)
        lit_inserts: List[Literal] = []
        recompute_entities: List[str] = []
        recompute_literals: List[Literal] = []
        for eid in touched_entities:
            old = id_of.get(eid)
            if graph.has_entity(eid):
                recompute_entities.append(eid)
                etype = graph.entity_type(eid)
                if old is None:
                    ent_inserts.append((etype, eid))
                elif etype_of[old] != etype:  # retype: move to the new bucket
                    dead.add(old)
                    ent_inserts.append((etype, eid))
            elif old is not None:
                dead.add(old)
        for literal in touched_literals:
            old = id_of.get(literal)
            if graph.in_triples(literal):
                recompute_literals.append(literal)
                if old is None:
                    lit_inserts.append(literal)
            elif old is not None:
                dead.add(old)

        snap = object.__new__(GraphSnapshot)
        snap.version = graph.version

        ents_unchanged = not ent_inserts and not any(
            old < num_entities for old in dead
        )
        lits_unchanged = not lit_inserts and not any(
            old >= num_entities for old in dead
        )
        identity = ents_unchanged and lits_unchanged
        if identity:
            # no interning change: reuse every table object outright
            snap._node_of = node_of
            snap._id_of = id_of
            snap._num_entities = num_entities
            snap._etype_of = etype_of
            snap._type_ranges = self._type_ranges
            remap: Optional[List[int]] = None
            old_for_new: Optional[List[int]] = None
            new_num_nodes = num_nodes
        else:
            if ents_unchanged:
                # the steady-state ingest shape — only the literal block
                # changed: the entity prefix is copied wholesale and the old
                # tables (types, buckets) are reused object-for-object
                remap = list(range(num_entities)) + [-1] * (num_nodes - num_entities)
                old_for_new = list(range(num_entities))
                new_nodes = list(node_of[:num_entities])
                new_etypes: Optional[List[str]] = None
            else:
                remap = [-1] * num_nodes
                old_for_new = []
                new_nodes = []
                new_etypes = []
                # entity inserts: position in the OLD entity order (insert
                # before that old id), bisecting the sorted (type, id) buckets
                type_starts = sorted(
                    (etype, span[0]) for etype, span in self._type_ranges.items()
                )
                positioned: List[Tuple[int, str, str]] = []
                for etype, eid in ent_inserts:
                    span = self._type_ranges.get(etype)
                    if span is not None:
                        pos = bisect_left(node_of, eid, span[0], span[1])
                    else:
                        at = bisect_left(type_starts, (etype, -1))
                        pos = type_starts[at][1] if at < len(type_starts) else num_entities
                    positioned.append((pos, etype, eid))
                positioned.sort()
                emit = 0
                for pos, etype, eid in positioned:
                    for oid in range(emit, pos):
                        if oid not in dead:
                            remap[oid] = len(new_nodes)
                            old_for_new.append(oid)
                            new_nodes.append(node_of[oid])
                            new_etypes.append(etype_of[oid])
                    emit = pos
                    old_for_new.append(-1)
                    new_nodes.append(eid)
                    new_etypes.append(etype)
                for oid in range(emit, num_entities):
                    if oid not in dead:
                        remap[oid] = len(new_nodes)
                        old_for_new.append(oid)
                        new_nodes.append(node_of[oid])
                        new_etypes.append(etype_of[oid])
            new_num_entities = len(new_nodes)

            # literal inserts: bisect the old repr order with lazy reprs
            def _lit_pos(key: str) -> int:
                lo, hi = num_entities, num_nodes
                while lo < hi:
                    mid = (lo + hi) // 2
                    if repr(node_of[mid]) < key:
                        lo = mid + 1
                    else:
                        hi = mid
                return lo

            lit_positioned = sorted(
                (_lit_pos(repr(literal)), repr(literal), literal)
                for literal in lit_inserts
            )
            #: first new id whose interning differs from the old literal
            #: block (feeds the incremental _id_of rebuild below)
            changed_from: Optional[int] = None
            emit = num_entities
            for pos, _key, literal in lit_positioned:
                if dead:
                    for oid in range(emit, pos):
                        if oid in dead:
                            if changed_from is None:
                                changed_from = len(new_nodes)
                        else:
                            remap[oid] = len(new_nodes)
                            old_for_new.append(oid)
                            new_nodes.append(node_of[oid])
                else:
                    shift = len(new_nodes) - emit
                    remap[emit:pos] = range(emit + shift, pos + shift)
                    old_for_new.extend(range(emit, pos))
                    new_nodes.extend(node_of[emit:pos])
                emit = pos
                if changed_from is None:
                    changed_from = len(new_nodes)
                old_for_new.append(-1)
                new_nodes.append(literal)
            if dead:
                for oid in range(emit, num_nodes):
                    if oid in dead:
                        if changed_from is None:
                            changed_from = len(new_nodes)
                    else:
                        remap[oid] = len(new_nodes)
                        old_for_new.append(oid)
                        new_nodes.append(node_of[oid])
            else:
                shift = len(new_nodes) - emit
                remap[emit:num_nodes] = range(emit + shift, num_nodes + shift)
                old_for_new.extend(range(emit, num_nodes))
                new_nodes.extend(node_of[emit:num_nodes])

            snap._node_of = tuple(new_nodes)
            snap._num_entities = new_num_entities
            if new_etypes is None:
                # entity interning untouched: the old id map survives from
                # the front; only the shifted literal tail is rewritten
                id_map = dict(id_of)
                for old in dead:
                    id_map.pop(node_of[old], None)
                if changed_from is not None:
                    for index in range(changed_from, len(new_nodes)):
                        id_map[new_nodes[index]] = index
                snap._id_of = id_map
                snap._etype_of = etype_of
                snap._type_ranges = self._type_ranges
            else:
                snap._id_of = {node: index for index, node in enumerate(new_nodes)}
                snap._etype_of = tuple(new_etypes)
                type_ranges: Dict[str, Tuple[int, int]] = {}
                start = 0
                for index, etype in enumerate(new_etypes):
                    if index == 0 or etype != new_etypes[index - 1]:
                        start = index
                    type_ranges[etype] = (start, index + 1)
                snap._type_ranges = type_ranges
            new_num_nodes = len(new_nodes)

        # -- predicates --------------------------------------------------- #
        new_preds = sorted(graph.predicates())
        preds_unchanged = list(self._pred_of) == new_preds
        if preds_unchanged:
            snap._pred_of = self._pred_of
            snap._pred_ids = self._pred_ids
            pred_remap: Optional[List[int]] = None
        else:
            snap._pred_of = tuple(new_preds)
            snap._pred_ids = {pred: index for index, pred in enumerate(new_preds)}
            pred_remap = [snap._pred_ids.get(pred, -1) for pred in self._pred_of]
        new_pred_ids = snap._pred_ids
        new_id_of = snap._id_of

        # -- recomputed rows for every touched, surviving node ------------ #
        fwd_rows: Dict[int, List[Tuple[int, int]]] = {}
        bwd_rows: Dict[int, List[Tuple[int, int]]] = {}
        und_rows: Dict[int, List[int]] = {}
        drop_subjects: Set[int] = set(dead)
        new_postings: List[Tuple[int, int, int]] = []
        for eid in recompute_entities:
            nid = new_id_of[eid]
            out_row: List[Tuple[int, int]] = []
            for triple in graph.out_triples(eid):
                oid = new_id_of[triple.obj]
                pid = new_pred_ids[triple.predicate]
                out_row.append((pid, oid))
                if oid >= snap._num_entities:
                    new_postings.append((pid, oid, nid))
            out_row.sort()
            fwd_rows[nid] = out_row
            bwd_rows[nid] = sorted(
                (new_pred_ids[t.predicate], new_id_of[t.subject])
                for t in graph.in_triples(eid)
            )
            und_rows[nid] = sorted(new_id_of[n] for n in graph.neighbors(eid))
            old = id_of.get(eid)
            if old is not None:
                drop_subjects.add(old)
        for literal in recompute_literals:
            nid = new_id_of[literal]
            fwd_rows[nid] = []
            bwd_rows[nid] = sorted(
                (new_pred_ids[t.predicate], new_id_of[t.subject])
                for t in graph.in_triples(literal)
            )
            und_rows[nid] = sorted(new_id_of[n] for n in graph.neighbors(literal))

        snap._fwd_offsets, snap._fwd_preds, snap._fwd_objs = _splice_csr2(
            self._fwd_offsets, self._fwd_preds, self._fwd_objs,
            fwd_rows, old_for_new, pred_remap, remap, new_num_nodes,
        )
        snap._bwd_offsets, snap._bwd_preds, snap._bwd_subjs = _splice_csr2(
            self._bwd_offsets, self._bwd_preds, self._bwd_subjs,
            bwd_rows, old_for_new, pred_remap, remap, new_num_nodes,
        )
        snap._und_offsets, snap._und_targets = _splice_csr1(
            self._und_offsets, self._und_targets,
            und_rows, old_for_new, remap, new_num_nodes,
        )

        # -- value index: filter touched subjects out, merge new postings - #
        new_postings.sort()
        vindex_offsets = array(_ID, bytes(8 * (len(new_preds) + 1)))
        vindex_literals = array(_ID)
        vindex_subjects = array(_ID)
        old_voffsets = self._vindex_offsets
        old_vlits = self._vindex_literals
        old_vsubjs = self._vindex_subjects
        old_run_of: Dict[int, int] = {}
        for old_pid in range(len(self._pred_of)):
            pid = old_pid if pred_remap is None else pred_remap[old_pid]
            if pid >= 0:
                old_run_of[pid] = old_pid
        cursor = 0
        total = 0
        num_new = len(new_postings)
        for pid in range(len(new_preds)):
            fresh: List[Tuple[int, int]] = []
            while cursor < num_new and new_postings[cursor][0] == pid:
                fresh.append(new_postings[cursor][1:])
                cursor += 1
            run: List[Tuple[int, int]] = []
            old_pid = old_run_of.get(pid)
            if old_pid is not None:
                lo, hi = old_voffsets[old_pid], old_voffsets[old_pid + 1]
                if remap is None:
                    for index in range(lo, hi):
                        sid = old_vsubjs[index]
                        if sid not in drop_subjects:
                            run.append((old_vlits[index], sid))
                else:
                    for index in range(lo, hi):
                        sid = old_vsubjs[index]
                        if sid not in drop_subjects:
                            run.append((remap[old_vlits[index]], remap[sid]))
            if fresh:
                run = list(_heap_merge(run, fresh))
            for lit_id, sid in run:
                vindex_literals.append(lit_id)
                vindex_subjects.append(sid)
            total += len(run)
            vindex_offsets[pid + 1] = total
        snap._vindex_offsets = vindex_offsets
        snap._vindex_literals = vindex_literals
        snap._vindex_subjects = vindex_subjects

        snap._num_triples = graph.num_triples
        if len(snap._fwd_objs) != snap._num_triples:
            raise RuntimeError(
                f"snapshot patch drifted: {len(snap._fwd_objs)} forward columns "
                f"for {snap._num_triples} triples (delta window inconsistent)"
            )
        snap._reset_lazy()
        snap._unchanged_tables = frozenset(
            (("entity_offsets", "entity_blob") if ents_unchanged else ())
            + (
                ("literal_tags", "literal_offsets", "literal_blob")
                if lits_unchanged
                else ()
            )
            + (("pred_offsets", "pred_blob") if preds_unchanged else ())
        )
        return snap

    def _reset_lazy(self) -> None:
        self._unchanged_tables = frozenset()
        self._store_path = None
        self._store_fingerprint = None
        self._obj_map = {}
        self._subj_map = {}
        self._neighbor_map = {}
        self._int_objects = {}
        self._int_subjects = {}
        self._adjacency = {}
        self._value_node_set = None
        self._repr_ranks = None

    # ------------------------------------------------------------------ #
    # pickling: compact arrays only, rows decoded again per process
    # ------------------------------------------------------------------ #

    # _id_of is deliberately absent: it is exactly {node: i for i, node in
    # enumerate(_node_of)} and is rebuilt on unpickle, so worker payloads
    # carry the interning table once, not twice.
    _PICKLED = (
        "version",
        "_node_of",
        "_num_entities",
        "_etype_of",
        "_type_ranges",
        "_pred_of",
        "_pred_ids",
        "_fwd_offsets", "_fwd_preds", "_fwd_objs",
        "_bwd_offsets", "_bwd_preds", "_bwd_subjs",
        "_und_offsets", "_und_targets",
        "_vindex_offsets", "_vindex_literals", "_vindex_subjects",
        "_num_triples",
    )

    def __getstate__(self) -> Dict[str, object]:
        state = {}
        for name in self._PICKLED:
            value = getattr(self, name)
            if isinstance(value, memoryview):
                # mmap-backed segments (snapshot-store loads) materialize
                # into plain arrays so detached pickling keeps working
                value = array(_ID, value)
            state[name] = value
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        # states pickled before the value index existed: degrade gracefully
        # (value_postings reports None and consumers fall back to traversal)
        for name in ("_vindex_offsets", "_vindex_literals", "_vindex_subjects"):
            if name not in state:
                object.__setattr__(self, name, None)
        self._id_of = {node: index for index, node in enumerate(self._node_of)}
        self._reset_lazy()

    def __reduce__(self):
        if self._store_path is not None:
            # attach-by-path: ship the store file path (a few hundred bytes),
            # not the arrays — the receiving process mmaps the same file, so
            # every worker on a machine shares one physical copy
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
        return self._id_of.get(node)

    def node_at(self, node_id: int) -> GraphNode:
        """The node object with interned id *node_id*."""
        return self._node_of[node_id]

    def pred_id(self, predicate: str) -> int:
        """The interned predicate id (``-1`` for unknown predicates)."""
        return self._pred_ids.get(predicate, -1)

    def type_range(self, etype: str) -> Tuple[int, int]:
        """The contiguous entity-id bucket ``[lo, hi)`` of *etype*."""
        return self._type_ranges.get(etype, (0, 0))

    @property
    def num_interned_nodes(self) -> int:
        """Total number of interned node ids (entities + value nodes)."""
        return len(self._node_of)

    def decode_ids(self, ids: Iterable[int]) -> Set[GraphNode]:
        """Decode interned ids back into a set of node objects."""
        node_of = self._node_of
        return {node_of[i] for i in ids}

    def encode_nodes(self, nodes: Iterable[GraphNode]) -> array:
        """Encode node objects into a sorted array of interned ids."""
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
        if isinstance(key, tuple):
            return tuple(self.placement_key(item) for item in key)
        mapped = self._id_of.get(key)
        return key if mapped is None else mapped

    def repr_rank(self, node_id: int) -> int:
        """The rank of the node in the global ``sorted(nodes, key=repr)`` order.

        The compiled VF2 matcher orders candidate ids by this rank, which
        reproduces the dict path's ``sorted(candidates, key=repr)`` branching
        order exactly (node reprs are unique across a graph's nodes).
        """
        ranks = self._repr_ranks
        if ranks is None:
            order = sorted(range(len(self._node_of)), key=lambda i: repr(self._node_of[i]))
            ranks = array(_ID, [0] * len(order))
            for rank, index in enumerate(order):
                ranks[index] = rank
            self._repr_ranks = ranks
        return ranks[node_id]

    # ------------------------------------------------------------------ #
    # integer-space adjacency (compiled hot paths)
    # ------------------------------------------------------------------ #

    def objects_ids(self, subject_id: int, pred_id: int) -> FrozenSet[int]:
        """Interned object ids with ``(subject, pred, o)`` in the graph."""
        key = (subject_id, pred_id)
        found = self._int_objects.get(key)
        if found is None:
            found = frozenset(self.out_ids(subject_id, pred_id)) or _EMPTY_IDS
            self._int_objects[key] = found
        return found

    def subjects_ids(self, object_id: int, pred_id: int) -> FrozenSet[int]:
        """Interned subject ids with ``(s, pred, object)`` in the graph."""
        key = (object_id, pred_id)
        found = self._int_subjects.get(key)
        if found is None:
            found = frozenset(self.in_ids(object_id, pred_id)) or _EMPTY_IDS
            self._int_subjects[key] = found
        return found

    def out_ids(self, node_id: int, pred_id: int) -> List[int]:
        """Object ids of ``(node, pred, o)`` straight off the CSR row.

        The forward row is sorted by ``(pred, obj)``, so one bisection
        isolates the predicate run — O(log row + matches) per call and
        nothing memoised, which is what signature traversal and incremental
        rebasing want; :meth:`objects_ids` is this answer kept as a set.
        """
        offsets, preds, objs = self._fwd_offsets, self._fwd_preds, self._fwd_objs
        lo, hi = offsets[node_id], offsets[node_id + 1]
        start = bisect_left(preds, pred_id, lo, hi)
        end = bisect_right(preds, pred_id, start, hi)
        return list(objs[start:end])

    def in_ids(self, node_id: int, pred_id: int) -> List[int]:
        """Subject ids of ``(s, pred, node)`` straight off the CSR row."""
        offsets, preds, subjs = self._bwd_offsets, self._bwd_preds, self._bwd_subjs
        lo, hi = offsets[node_id], offsets[node_id + 1]
        start = bisect_left(preds, pred_id, lo, hi)
        end = bisect_right(preds, pred_id, start, hi)
        return list(subjs[start:end])

    def value_postings(self, pred_id: int):
        """The inverted value-index run of *pred_id*.

        Returns ``(literal ids, subject ids)`` — two parallel id sequences
        sorted by ``(literal, subject)`` covering every triple of that
        predicate whose object is a literal — or ``None`` when the predicate
        is unknown or this snapshot carries no value index (instances
        unpickled from pre-index states).
        """
        offsets = getattr(self, "_vindex_offsets", None)
        if offsets is None or pred_id < 0 or pred_id >= len(offsets) - 1:
            return None
        lo, hi = offsets[pred_id], offsets[pred_id + 1]
        return self._vindex_literals[lo:hi], self._vindex_subjects[lo:hi]

    def adjacency(self, node_id: int) -> Tuple[int, ...]:
        """The undirected neighbour ids of *node_id* (the BFS working form).

        One CSR row, decoded on first read; the CSR arrays remain the
        pickled representation.
        """
        row = self._adjacency.get(node_id)
        if row is None:
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
        objects are hashed while exploring, which is where the snapshot path
        beats the dict path.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        result = [root_id]
        if radius == 0:
            return result
        adjacency = self.adjacency
        use_flags = len(self._node_of) <= self.FLAG_BFS_LIMIT
        if use_flags:
            flags = bytearray(len(self._node_of))
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
        root = self._id_of.get(entity)
        if root is None or root >= self._num_entities:
            raise UnknownEntityError(entity)
        ids = self.neighborhood_ids(root, radius)
        if len(ids) == 1:
            return {self._node_of[ids[0]]}
        return set(_itemgetter(*ids)(self._node_of))

    # ------------------------------------------------------------------ #
    # Graph read surface (duck-type compatible)
    # ------------------------------------------------------------------ #

    @property
    def num_entities(self) -> int:
        return self._num_entities

    @property
    def num_triples(self) -> int:
        return self._num_triples

    @property
    def num_nodes(self) -> int:
        return len(self._node_of)

    def __len__(self) -> int:
        return self._num_triples

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Triple):
            return self.has_triple(item.subject, item.predicate, item.obj)
        if isinstance(item, str):
            return self.has_entity(item)
        return False

    def has_entity(self, eid: str) -> bool:
        index = self._id_of.get(eid)
        return index is not None and index < self._num_entities

    def _entity_index(self, eid: str) -> int:
        index = self._id_of.get(eid) if isinstance(eid, str) else None
        if index is None or index >= self._num_entities:
            raise UnknownEntityError(str(eid))
        return index

    def entity(self, eid: str) -> Entity:
        index = self._entity_index(eid)
        return Entity(eid, self._etype_of[index])

    def entity_type(self, eid: str) -> str:
        return self._etype_of[self._entity_index(eid)]

    def entities(self) -> Iterator[Entity]:
        for index in range(self._num_entities):
            yield Entity(self._node_of[index], self._etype_of[index])

    def entity_ids(self) -> Iterator[str]:
        return iter(self._node_of[: self._num_entities])

    def entities_of_type(self, etype: str) -> List[str]:
        lo, hi = self._type_ranges.get(etype, (0, 0))
        return list(self._node_of[lo:hi])

    def types(self) -> Set[str]:
        return set(self._type_ranges.keys())

    def predicates(self) -> Set[str]:
        return set(self._pred_of)

    def value_nodes(self) -> FrozenSet[Literal]:
        if self._value_node_set is None:
            self._value_node_set = frozenset(self._node_of[self._num_entities :])
        return self._value_node_set

    def triples(self) -> Iterator[Triple]:
        node_of, pred_of = self._node_of, self._pred_of
        offsets, preds, objs = self._fwd_offsets, self._fwd_preds, self._fwd_objs
        for sid in range(self._num_entities):
            subject = node_of[sid]
            for index in range(offsets[sid], offsets[sid + 1]):
                yield Triple(subject, pred_of[preds[index]], node_of[objs[index]])

    def to_graph(self) -> "Graph":
        """Reconstruct a mutable :class:`~repro.core.graph.Graph`.

        Content-faithful by construction (same entities, same triples), so
        ``fingerprint_of(snapshot.to_graph()) == snapshot`` fingerprint —
        the property WAL recovery relies on when the journal's base state
        lives in a snapshot store rather than in memory.
        """
        from ..core.graph import Graph  # lazy: storage must not import core eagerly

        graph = Graph()
        for entity in self.entities():
            graph.add_entity(entity.eid, entity.etype)
        for triple in self.triples():
            graph.add_triple(triple)
        return graph

    # -- decoded adjacency rows (one row per first read, per process) ---- #

    def _decode_row(self, node: GraphNode, forward: bool) -> Dict[str, frozenset]:
        """Decode and memoise one forward / backward CSR row: ``pred -> node set``."""
        index = self._id_of.get(node)
        if index is None:
            return _NO_ROW
        if forward:
            offsets, preds, others = self._fwd_offsets, self._fwd_preds, self._fwd_objs
        else:
            offsets, preds, others = self._bwd_offsets, self._bwd_preds, self._bwd_subjs
        node_of, pred_of = self._node_of, self._pred_of
        per_pred: Dict[str, list] = {}
        for i in range(offsets[index], offsets[index + 1]):
            per_pred.setdefault(pred_of[preds[i]], []).append(node_of[others[i]])
        row = {pred: frozenset(found) for pred, found in per_pred.items()}
        (self._obj_map if forward else self._subj_map)[node] = row
        return row

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
            index = self._id_of.get(node)
            if index is None:
                return _EMPTY_NODES
            node_of = self._node_of
            found = frozenset(node_of[nbr] for nbr in self.adjacency(index))
            self._neighbor_map[node] = found
        return found

    def degree(self, node: GraphNode) -> int:
        index = self._id_of.get(node)
        if index is None:
            return 0
        return self._und_offsets[index + 1] - self._und_offsets[index]

    def out_triples(self, subject: str) -> FrozenSet[Triple]:
        row = self._obj_map.get(subject)
        if row is None:
            row = self._decode_row(subject, True)
        return frozenset(
            Triple(subject, pred, obj) for pred, objs in row.items() for obj in objs
        )

    def in_triples(self, obj: GraphNode) -> FrozenSet[Triple]:
        row = self._subj_map.get(obj)
        if row is None:
            row = self._decode_row(obj, False)
        return frozenset(
            Triple(subj, pred, obj) for pred, subjs in row.items() for subj in subjs
        )

    def induced_subgraph(self, nodes: Iterable[GraphNode]) -> Graph:
        """The induced subgraph as a fresh, mutable :class:`Graph`."""
        keep = set(nodes)
        sub = Graph()
        for node in keep:
            if is_entity_ref(node) and self.has_entity(node):
                sub.add_entity(node, self.entity_type(node))
        for node in keep:
            if not (is_entity_ref(node) and self.has_entity(node)):
                continue
            for triple in self.out_triples(node):
                if triple.obj in keep:
                    sub.add_triple(triple)
        return sub

    def stats(self) -> Dict[str, int]:
        """Summary counts; ``decoded_rows`` is what this process has read so far.

        It counts the CSR rows decoded and memoised on first read — forward
        and backward rows (object space), undirected rows (the BFS form) —
        plus the predicate runs kept by the integer surface.  A freshly
        built, patched, loaded or unpickled snapshot starts at zero.
        """
        return {
            "decoded_rows": (
                len(self._obj_map) + len(self._subj_map) + len(self._adjacency)
                + len(self._int_objects) + len(self._int_subjects)
            ),
            "entities": self.num_entities,
            "values": len(self._node_of) - self._num_entities,
            "nodes": self.num_nodes,
            "triples": self.num_triples,
            "types": len(self._type_ranges),
            "predicates": len(self._pred_of),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphSnapshot(version={self.version}, entities={self.num_entities}, "
            f"triples={self.num_triples}, types={len(self._type_ranges)})"
        )


def _restore_snapshot(state: Dict[str, object]) -> GraphSnapshot:
    snap = object.__new__(GraphSnapshot)
    snap.__setstate__(state)
    return snap


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
