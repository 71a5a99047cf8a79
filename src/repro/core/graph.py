"""In-memory property graph (triple store): the published snapshot plus the
rows written since.

The graph follows the paper's model (Section 2.1): a set of triples
``(s, p, o)`` where ``s`` is an entity, ``p`` a predicate and ``o`` an entity
or a value; values (:class:`~repro.core.triples.Literal`) are nodes too.

A graph holds its triples once: in the *held* snapshot, the immutable
:class:`~repro.storage.snapshot.GraphSnapshot` it last *published*, and in
the *written rows* — the forward (``subject -> {predicate: objects}``) and
backward (``object -> {predicate: subjects}``) row of every node written
since, copied from the held snapshot on the row's first write.  Node reads
(``has_triple``, ``objects``, ``subjects``, ``out_row``, ``in_row``,
``neighbors``, ``degree``) answer from a written row or the held snapshot
and never publish, so a write never publishes.  :meth:`Graph.snapshot`
publishes (a build, a patch of the held snapshot or a compaction) and drops
the written rows; whole-graph reads (``types()``, ``triples()``,
``stats()``, ``==``, ...) publish and answer from the snapshot.  The entity
table (id -> type), counters, the mutation journal and the running content
fingerprint answer the entity reads, ``num_triples``, ``predicates()`` and
``content_fingerprint()`` without publishing either.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Set, Tuple

from ..exceptions import DuplicateEntityError, GraphError, UnknownEntityError
from .fingerprint import _FP_MOD, entity_term, format_fingerprint, triple_term
from .triples import Entity, GraphNode, Literal, Triple

if TYPE_CHECKING:
    from ..storage.snapshot import GraphSnapshot

#: ``publish(how, compile) -> snapshot``: the hook :meth:`Graph.snapshot`
#: hands what it does (``how`` is ``"held"``, ``"build"``, ``"patch"`` or
#: ``"compaction"``), answering the snapshot
Publish = Callable[[str, Callable[[], "GraphSnapshot"]], "GraphSnapshot"]


class Graph:
    """A directed, edge-labelled graph of entities and values.

    The public surface is intentionally small and explicit:

    >>> g = Graph()
    >>> g.add_entity("alb1", "album")
    Entity(eid='alb1', etype='album')
    >>> g.add_entity("art1", "artist")
    Entity(eid='art1', etype='artist')
    >>> g.add_value("alb1", "name_of", "Anthology 2")
    >>> g.add_edge("alb1", "recorded_by", "art1")
    >>> g.num_triples
    2
    """

    __slots__ = (
        "_snapshot",
        "_entities",
        "_typed",
        "_out",
        "_in",
        "_num_triples",
        "_pred_counts",
        "_version",
        "_touched_versions",
        "_touched_nodes",
        "_log_base_version",
        "_journal_compactions",
        "_fp_acc",
    )

    #: Mutation journal window (entries).  When the journal fills up it is
    #: first *compacted* — only the most recent entry per node is kept, which
    #: preserves every ``touched_since`` answer in the window exactly (the
    #: nodes touched after version ``v`` are precisely the nodes whose *last*
    #: touch is after ``v``) — so long-running ingest on a bounded node set
    #: keeps the full window alive indefinitely.  Only when more *distinct*
    #: nodes than the limit were touched does the window slide: the log is
    #: cleared and restarted at the current version, and
    #: :meth:`touched_since` answers ``None`` for versions that fell out
    #: (callers then do a full cache rebuild).
    MUTATION_LOG_LIMIT = 100_000

    #: patch-vs-build threshold of :meth:`snapshot`: once the rows a patched
    #: snapshot would hold outside its canonical arrays (the held overlay's,
    #: plus the written nodes) pass this fraction of its nodes, publishing
    #: compiles the canonical form instead; it bounds what every read
    #: consults first, and what each publish copies and the store writes
    SNAPSHOT_PATCH_MAX_FRACTION = 0.5

    def __init__(self) -> None:
        # the held snapshot: the graph as last published (None before that)
        self._snapshot: Optional["GraphSnapshot"] = None
        # the entity table (id -> type), and the entities added or retyped
        # since the held snapshot
        self._entities: Dict[str, str] = {}
        self._typed: Set[str] = set()
        # the written rows: the forward / backward row of every node a
        # triple write touched since (an emptied row still hides the held one)
        self._out: Dict[str, Dict[str, Set[GraphNode]]] = {}
        self._in: Dict[GraphNode, Dict[str, Set[str]]] = {}
        self._num_triples: int = 0
        # predicate -> live triple count, so predicates() and the snapshot
        # patcher answer the predicate universe without an O(|G|) scan
        self._pred_counts: Dict[str, int] = {}
        # mutation journal: monotone version + the nodes each mutation touched,
        # so sessions can invalidate exactly the caches a mutation staled;
        # the log holds the entries for versions (_log_base_version, _version]
        # as two parallel sequences (versions strictly increasing, bisectable)
        self._version: int = 0
        self._touched_versions = array("q")
        self._touched_nodes: List[GraphNode] = []
        self._log_base_version: int = 0
        self._journal_compactions: int = 0
        # running content-fingerprint accumulator (see core.fingerprint):
        # every mutation primitive adds/subtracts its term, so
        # content_fingerprint() is O(1) at any moment
        self._fp_acc: int = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_entity(self, eid: str, etype: str) -> Entity:
        """Register an entity with id *eid* and type *etype*.

        Re-adding an entity with the same type is a no-op; re-adding with a
        different type raises :class:`DuplicateEntityError`.
        """
        existing = self._entities.get(eid)
        if existing is not None:
            if existing != etype:
                raise DuplicateEntityError(eid, existing, etype)
            return Entity(eid, etype)
        term = entity_term(eid, etype)  # before any write: it may raise
        self._entities[eid] = etype
        self._typed.add(eid)
        self._fp_acc = (self._fp_acc + term) % _FP_MOD
        self._record_mutation((eid,))
        return Entity(eid, etype)

    def add_triple(self, triple: Triple) -> None:
        """Add a triple; the subject (and an entity object) must be registered."""
        self._add(triple.subject, triple.predicate, triple.obj)

    def _add(self, subject: str, predicate: str, obj: GraphNode) -> None:
        if subject not in self._entities:
            raise UnknownEntityError(subject)
        if isinstance(obj, str) and obj not in self._entities:
            raise UnknownEntityError(obj)
        held = self._snapshot
        out = self._out.get(subject)
        if out is None:  # copied from the held row, stored below if it changes
            out = {} if held is None else held.row_copy(subject, True)
        if obj in out.get(predicate, ()):
            return
        term = triple_term(subject, predicate, obj)  # before any write: it may raise
        self._out[subject] = out
        out.setdefault(predicate, set()).add(obj)
        back = self._in.get(obj)
        if back is None:
            back = self._in[obj] = {} if held is None else held.row_copy(obj, False)
        back.setdefault(predicate, set()).add(subject)
        self._num_triples += 1
        self._pred_counts[predicate] = self._pred_counts.get(predicate, 0) + 1
        self._fp_acc = (self._fp_acc + term) % _FP_MOD
        self._record_mutation((subject, obj))

    def _record_mutation(self, nodes: Tuple[GraphNode, ...]) -> None:
        versions = self._touched_versions
        touched = self._touched_nodes
        for node in nodes:
            self._version += 1
            versions.append(self._version)
            touched.append(node)
        if len(touched) > self.MUTATION_LOG_LIMIT:
            self._compact_journal()

    def _compact_journal(self) -> None:
        # Keep only the most recent entry per node: touched_since(v) is
        # exactly the set of nodes whose *last* touch has version > v, so
        # dropping superseded entries preserves every answer in the window.
        # Repeated set_value/add/remove churn on a bounded node set therefore
        # never slides the window, no matter how long ingest runs.
        last: Dict[GraphNode, int] = dict(zip(self._touched_nodes, self._touched_versions))
        if len(last) > self.MUTATION_LOG_LIMIT:
            # more distinct nodes than the window holds: slide (old behavior)
            self._touched_versions = array("q")
            self._touched_nodes = []
            self._log_base_version = self._version
            return
        entries = sorted(last.items(), key=lambda item: item[1])
        self._touched_versions = array("q", [version for _, version in entries])
        self._touched_nodes = [node for node, _ in entries]
        self._journal_compactions += 1

    @property
    def version(self) -> int:
        """Monotone mutation counter; bumped by every entity/triple mutation."""
        return self._version

    @property
    def journal_size(self) -> int:
        """Number of live journal entries (bounded by ``MUTATION_LOG_LIMIT``)."""
        return len(self._touched_nodes)

    @property
    def journal_compactions(self) -> int:
        """How many times the journal coalesced superseded entries."""
        return self._journal_compactions

    def content_fingerprint(self) -> str:
        """The graph's content fingerprint, from the O(1) running accumulator.

        Maintained incrementally through every mutation primitive; equal to
        :func:`repro.core.fingerprint.graph_fingerprint` (the full recompute)
        at all times — the property suite proves it across arbitrary
        mutation sequences.
        """
        return format_fingerprint(self._fp_acc)

    def touched_since(self, version: int) -> Optional[Set[GraphNode]]:
        """Nodes touched by mutations after *version* of this graph.

        Returns ``None`` when *version* fell out of the journal window;
        callers must then treat *every* node as possibly touched.
        """
        if version < self._log_base_version:
            return None
        start = bisect_right(self._touched_versions, version)
        return set(self._touched_nodes[start:])

    def add_edge(self, subject: str, predicate: str, obj: str) -> None:
        """Add an entity-to-entity triple ``(subject, predicate, obj)``."""
        self._add(subject, predicate, obj)

    def add_value(self, subject: str, predicate: str, value: object) -> None:
        """Add an entity-to-value triple; *value* is wrapped in a Literal."""
        self._add(subject, predicate, value if isinstance(value, Literal) else Literal(value))

    # ------------------------------------------------------------------ #
    # non-monotone mutations (journalled like the additions above)
    # ------------------------------------------------------------------ #

    def remove_triple(self, triple: Triple) -> None:
        """Remove a triple; removing an absent triple is a no-op (like re-adds).

        The mutation journal records both endpoints, exactly as
        :meth:`add_triple` does, so incremental consumers see deletions and
        insertions through the same ``touched_since`` window.
        """
        self._remove(triple.subject, triple.predicate, triple.obj)

    def _remove(self, subject: str, predicate: str, obj: GraphNode) -> None:
        held = self._snapshot
        out = self._out.get(subject)
        if out is None:  # as in _add
            out = {} if held is None else held.row_copy(subject, True)
        if obj not in out.get(predicate, ()):
            return
        term = triple_term(subject, predicate, obj)
        self._out[subject] = out
        _discard(out, predicate, obj)
        back = self._in.get(obj)
        if back is None:
            back = self._in[obj] = held.row_copy(obj, False)  # the triple was held
        _discard(back, predicate, subject)
        self._num_triples -= 1
        remaining = self._pred_counts[predicate] - 1
        if remaining > 0:
            self._pred_counts[predicate] = remaining
        else:
            del self._pred_counts[predicate]
        self._fp_acc = (self._fp_acc - term) % _FP_MOD
        self._record_mutation((subject, obj))

    def remove_edge(self, subject: str, predicate: str, obj: str) -> None:
        """Remove an entity-to-entity triple (absent edge: no-op)."""
        self._remove(subject, predicate, obj)

    def remove_value(self, subject: str, predicate: str, value: object) -> None:
        """Remove an entity-to-value triple (absent value: no-op)."""
        self._remove(subject, predicate, value if isinstance(value, Literal) else Literal(value))

    def set_value(self, subject: str, predicate: str, value: object) -> None:
        """Replace every value of ``(subject, predicate)`` with *value*.

        The "literal edit" mutation: existing value triples under the
        predicate are removed and the single new value is added, all through
        the journalled mutation primitives.
        """
        literal = value if isinstance(value, Literal) else Literal(value)
        for existing in self.objects(subject, predicate):
            if isinstance(existing, Literal) and existing != literal:
                self._remove(subject, predicate, existing)
        self._add(subject, predicate, literal)

    def retype_entity(self, eid: str, etype: str) -> Entity:
        """Change the type of entity *eid* to *etype* (same type: no-op).

        Incident triples are kept — only the type changes.  The journal
        records the entity as touched.
        """
        existing = self.entity_type(eid)
        if existing != etype:
            term = entity_term(eid, etype) - entity_term(eid, existing)
            self._entities[eid] = etype
            self._typed.add(eid)
            self._fp_acc = (self._fp_acc + term) % _FP_MOD
            self._record_mutation((eid,))
        return Entity(eid, etype)

    @classmethod
    def from_triples(
        cls, entities: Mapping[str, str], triples: Iterable[Triple]
    ) -> "Graph":
        """Build a graph from an entity-type mapping and an iterable of triples."""
        graph = cls()
        for eid, etype in entities.items():
            graph.add_entity(eid, etype)
        for triple in triples:
            graph.add_triple(triple)
        return graph

    def copy(self) -> "Graph":
        """Return an independent copy of this graph: the held snapshot is
        shared (it is immutable), the written rows are copied.

        The copy starts at this graph's version with an empty journal:
        ``touched_since`` answers ``None`` below it (nothing holds a seed of
        a graph that did not exist yet)."""
        out, back, typed = self._out, self._in, self._typed  # the rows first: see snapshot()
        clone = Graph()
        clone._snapshot = self._snapshot
        clone._entities = dict(self._entities)
        clone._typed = set(typed)
        clone._out = {n: {p: set(m) for p, m in row.items()} for n, row in out.items()}
        clone._in = {n: {p: set(m) for p, m in row.items()} for n, row in back.items()}
        clone._num_triples = self._num_triples
        clone._pred_counts = dict(self._pred_counts)
        clone._fp_acc = self._fp_acc
        clone._version = clone._log_base_version = self._version
        return clone

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #

    @property
    def held_snapshot(self) -> Optional["GraphSnapshot"]:
        """The snapshot last published, ``None`` before the first; older than
        the graph while written rows are pending."""
        return self._snapshot

    def written_nodes(self) -> Set[GraphNode]:
        """The nodes written since the held snapshot: exactly the journal's
        ``touched_since`` of its version, whatever the journal kept."""
        return self._typed | self._out.keys() | self._in.keys()

    def snapshot(self, publish: Optional[Publish] = None) -> "GraphSnapshot":
        """Publish: the immutable snapshot of this graph at its version.

        This call decides how: ``"held"`` when nothing was written since
        (the held snapshot answers), else ``"build"`` when none is held,
        ``"patch"`` (the held snapshot patched with :meth:`written_nodes`),
        or ``"compaction"`` (a build) once the patched overlay would pass
        :attr:`SNAPSHOT_PATCH_MAX_FRACTION`; what it publishes is held as
        the written rows are dropped.  *publish*, when given, is called as
        ``publish(how, compile)`` and answers the snapshot: ``compile()``,
        or a snapshot store's copy of a build (a session counts, times and
        stores what the graph publishes there).

        Two callers may publish one graph at once (sessions sharing it; no
        write may run meanwhile).  Each compiles off the rows and the held
        snapshot it captured, in that order, and the snapshot is swapped in
        before the rows are dropped, so no capture pairs an older snapshot
        with a newer one's (emptied) rows; either result holds the graph's
        content, and the one held is answered.
        """
        from ..storage.snapshot import GraphSnapshot  # storage builds on this module

        written = self._out, self._in
        typed = self._typed
        held = self._snapshot
        if held is not None and held.version == self._version:
            return held if publish is None else publish("held", lambda: held)
        nodes = typed | written[0].keys() | written[1].keys()
        if held is not None and held.overlay_rows + len(nodes) <= (
            self.SNAPSHOT_PATCH_MAX_FRACTION * max(1, held.num_nodes)
        ):
            how, compile = "patch", partial(held.patched, self, nodes, written)
        else:
            how = "build" if held is None else "compaction"
            compile = partial(GraphSnapshot.build, self)
        published = compile() if publish is None else publish(how, compile)
        if self._snapshot is held:  # else another publisher's is held
            self._snapshot = published
            self._typed, self._out, self._in = set(), {}, {}
        return self._snapshot

    def content(
        self,
    ) -> Tuple[Dict[str, str], Set[Literal], Iterable[str], Optional["GraphSnapshot"], Mapping]:
        """What :meth:`GraphSnapshot.build` compiles, without publishing:
        ``(entity id -> type, value nodes, predicates, held snapshot,
        written forward rows)`` — the held snapshot's rows stand for every
        subject the written rows do not name."""
        written, backward = self._out, self._in  # the rows first: see snapshot()
        held = self._snapshot
        values = set() if held is None else set(held.value_nodes())
        for node, row in backward.items():
            if not isinstance(node, str):
                (values.add if row else values.discard)(node)
        return self._entities, values, self._pred_counts.keys(), held, written

    # ------------------------------------------------------------------ #
    # node reads: a written row, else the held snapshot; never a publish
    # ------------------------------------------------------------------ #

    @property
    def num_entities(self) -> int:
        """Number of entity nodes."""
        return len(self._entities)

    @property
    def num_triples(self) -> int:
        """Number of triples, i.e. ``|G|`` in the paper's notation."""
        return self._num_triples

    def __len__(self) -> int:
        return self._num_triples

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Triple):
            return self.has_triple(*item)
        if isinstance(item, str):
            return self.has_entity(item)
        return False

    def has_entity(self, eid: str) -> bool:
        """Return True when *eid* is a registered entity."""
        return eid in self._entities

    def entity_ids(self) -> Iterator[str]:
        """Iterate over all entity ids."""
        return iter(self._entities)

    def entities(self) -> Iterator[Entity]:
        """Iterate over all entity records."""
        return (Entity(eid, etype) for eid, etype in self._entities.items())

    def entity(self, eid: str) -> Entity:
        """Return the :class:`Entity` record for *eid*."""
        return Entity(eid, self.entity_type(eid))

    def entity_type(self, eid: str) -> str:
        """Return the type of entity *eid*."""
        try:
            return self._entities[eid]
        except KeyError:
            raise UnknownEntityError(eid) from None

    def predicates(self) -> Set[str]:
        """Return the set of predicates used by triples of this graph.

        O(#predicates), off the live-count index — a predicate whose last
        triple was removed disappears from the answer.
        """
        return set(self._pred_counts)

    def has_triple(self, subject: str, predicate: str, obj: GraphNode) -> bool:
        """Return True when the triple ``(subject, predicate, obj)`` exists."""
        return obj in self.out_row(subject).get(predicate, ())

    def out_row(self, subject: str) -> Mapping[str, Set[GraphNode]]:
        """The forward row of *subject*, ``{predicate: objects}`` (read only)."""
        row = self._out.get(subject)
        if row is None:
            held = self._snapshot
            return _NO_ROW if held is None else held.out_row(subject)
        return row

    def in_row(self, obj: GraphNode) -> Mapping[str, Set[str]]:
        """The backward row of *obj*, ``{predicate: subjects}`` (read only)."""
        row = self._in.get(obj)
        if row is None:
            held = self._snapshot
            return _NO_ROW if held is None else held.in_row(obj)
        return row

    def out_triples(self, subject: str) -> Set[Triple]:
        """All triples whose subject is *subject* (a new set)."""
        return {Triple(subject, p, o) for p, objects in self.out_row(subject).items() for o in objects}

    def in_triples(self, obj: GraphNode) -> Set[Triple]:
        """All triples whose object is *obj* (a new set)."""
        return {Triple(s, p, obj) for p, subjects in self.in_row(obj).items() for s in subjects}

    def objects(self, subject: str, predicate: str) -> FrozenSet[GraphNode]:
        """All objects ``o`` with ``(subject, predicate, o)`` in the graph."""
        return frozenset(self.out_row(subject).get(predicate, ()))

    def subjects(self, predicate: str, obj: GraphNode) -> FrozenSet[str]:
        """All subjects ``s`` with ``(s, predicate, obj)`` in the graph."""
        return frozenset(self.in_row(obj).get(predicate, ()))

    def neighbors(self, node: GraphNode) -> Set[GraphNode]:
        """Undirected neighbours of *node*, whatever the predicate and the
        direction (a new set)."""
        return set().union(*self.out_row(node).values(), *self.in_row(node).values())

    def degree(self, node: GraphNode) -> int:
        """Undirected degree of *node*."""
        return len(self.neighbors(node))

    # ------------------------------------------------------------------ #
    # whole-graph reads: publish, then answer from the snapshot
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes (entities plus distinct value nodes)."""
        return self.snapshot().num_nodes

    def entities_of_type(self, etype: str) -> List[str]:
        """Return the ids of all entities with type *etype* (sorted)."""
        return self.snapshot().entities_of_type(etype)

    def types(self) -> Set[str]:
        """Return the set of entity types present in the graph."""
        return self.snapshot().types()

    def value_nodes(self) -> FrozenSet[Literal]:
        """Return the set of distinct value nodes (a literal whose last triple
        went is gone too)."""
        return self.snapshot().value_nodes()

    def triples(self) -> Iterator[Triple]:
        """Iterate over all triples."""
        return self.snapshot().triples()

    def stats(self) -> Dict[str, int]:
        """Return a small dictionary of summary statistics."""
        stats = self.snapshot().stats()
        del stats["decoded_rows"]
        return stats

    # ------------------------------------------------------------------ #
    # subgraphs and structural queries
    # ------------------------------------------------------------------ #

    def induced_subgraph(self, nodes: Iterable[GraphNode]) -> "Graph":
        """Return the subgraph induced by *nodes*.

        Entity nodes keep their types; a triple is kept when both endpoints
        are in *nodes*.
        """
        keep = set(nodes)
        entities = [node for node in keep if isinstance(node, str) and self.has_entity(node)]
        sub = Graph()
        for node in entities:
            sub.add_entity(node, self.entity_type(node))
        for node in entities:
            for predicate, objects in self.out_row(node).items():
                for obj in keep.intersection(objects):
                    sub._add(node, predicate, obj)
        return sub

    def union(self, other: "Graph") -> "Graph":
        """Return a new graph with the entities and triples of both graphs.

        Raises :class:`DuplicateEntityError` when the two graphs disagree on
        the type of a shared entity id.
        """
        return merge_graphs((self, other))

    def is_connected(self) -> bool:
        """Return True when the undirected graph is connected (or empty)."""
        snapshot = self.snapshot()
        nodes = set(snapshot.entity_ids()) | snapshot.value_nodes()
        frontier = [next(iter(nodes))] if nodes else []
        seen = set(frontier)
        while frontier:
            fresh = snapshot.neighbors(frontier.pop()) - seen
            seen |= fresh
            frontier.extend(fresh)
        return seen >= nodes

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_triples == other._num_triples
            and set(self.entities()) == set(other.entities())
            and set(self.triples()) == set(other.triples())
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(entities={self.num_entities}, triples={self.num_triples}, "
            f"version={self.version})"
        )


#: the row of a node without one (a read-only view: writing to it raises)
_NO_ROW: Mapping[str, Set] = MappingProxyType({})


def _discard(row: Dict[str, Set], predicate: str, other: GraphNode) -> None:
    """Drop *other* from a written row, and the set it empties (an emptied
    row stays: it hides the held one)."""
    members = row[predicate]
    members.discard(other)
    if not members:
        del row[predicate]


def merge_graphs(graphs: Sequence[Graph]) -> Graph:
    """Union an arbitrary sequence of graphs into a new graph."""
    merged = Graph()
    for graph in graphs:
        for entity in graph.entities():
            merged.add_entity(entity.eid, entity.etype)
        for triple in graph.triples():
            merged.add_triple(triple)
    return merged
