"""In-memory property graph (triple store) with the indexes the matching
algorithms need.

The graph follows the paper's model (Section 2.1): a set of triples
``(s, p, o)`` where ``s`` is an entity, ``p`` a predicate and ``o`` an entity
or a value.  The store maintains:

* an entity table (id → type) and a type index (type → ids),
* forward and backward adjacency indexes keyed by ``(node, predicate)``,
* an undirected adjacency index used for d-neighbourhood extraction.

Values (:class:`~repro.core.triples.Literal`) are graph nodes too: two equal
values are the same node, as in the paper.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import DuplicateEntityError, GraphError, UnknownEntityError
from .fingerprint import _FP_MOD, entity_term, format_fingerprint, triple_term
from .triples import Entity, GraphNode, Literal, Triple, is_entity_ref


class Graph:
    """A directed, edge-labelled graph of entities and values.

    The public surface is intentionally small and explicit:

    >>> g = Graph()
    >>> g.add_entity("alb1", "album")
    >>> g.add_entity("art1", "artist")
    >>> g.add_value("alb1", "name_of", "Anthology 2")
    >>> g.add_edge("alb1", "recorded_by", "art1")
    >>> g.num_triples
    2
    """

    __slots__ = (
        "_entities",
        "_by_type",
        "_triples",
        "_out",
        "_in",
        "_out_by_pred",
        "_in_by_pred",
        "_undirected",
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

    def __init__(self) -> None:
        self._entities: Dict[str, Entity] = {}
        self._by_type: Dict[str, Set[str]] = defaultdict(set)
        self._triples: Set[Triple] = set()
        # node -> list/set of triples with that node as subject / object
        self._out: Dict[str, Set[Triple]] = defaultdict(set)
        self._in: Dict[GraphNode, Set[Triple]] = defaultdict(set)
        # (node, predicate) -> set of objects / subjects
        self._out_by_pred: Dict[Tuple[str, str], Set[GraphNode]] = defaultdict(set)
        self._in_by_pred: Dict[Tuple[GraphNode, str], Set[str]] = defaultdict(set)
        # undirected adjacency (ignoring direction and predicate), for BFS
        self._undirected: Dict[GraphNode, Set[GraphNode]] = defaultdict(set)
        # predicate -> live triple count, so predicates() and the snapshot
        # patcher answer the predicate universe without an O(|G|) scan
        self._pred_counts: Dict[str, int] = {}
        # mutation journal: monotone version + the nodes each mutation touched,
        # so sessions can invalidate exactly the caches a mutation staled;
        # the log holds the entries for versions (_log_base_version, _version]
        # as two parallel lists (versions strictly increasing, bisectable)
        self._version: int = 0
        self._touched_versions: List[int] = []
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
            if existing.etype != etype:
                raise DuplicateEntityError(eid, existing.etype, etype)
            return existing
        term = entity_term(eid, etype)  # before any write: it may raise
        entity = Entity(eid, etype)
        self._entities[eid] = entity
        self._by_type[etype].add(eid)
        self._fp_acc = (self._fp_acc + term) % _FP_MOD
        self._record_mutation((eid,))
        return entity

    def add_triple(self, triple: Triple) -> None:
        """Add a triple; the subject (and an entity object) must be registered."""
        if triple.subject not in self._entities:
            raise UnknownEntityError(triple.subject)
        if triple.object_is_entity() and triple.obj not in self._entities:
            raise UnknownEntityError(str(triple.obj))
        if triple in self._triples:
            return
        term = triple_term(triple.subject, triple.predicate, triple.obj)
        self._triples.add(triple)
        self._out[triple.subject].add(triple)
        self._in[triple.obj].add(triple)
        self._out_by_pred[(triple.subject, triple.predicate)].add(triple.obj)
        self._in_by_pred[(triple.obj, triple.predicate)].add(triple.subject)
        self._undirected[triple.subject].add(triple.obj)
        self._undirected[triple.obj].add(triple.subject)
        self._pred_counts[triple.predicate] = self._pred_counts.get(triple.predicate, 0) + 1
        self._fp_acc = (self._fp_acc + term) % _FP_MOD
        self._record_mutation((triple.subject, triple.obj))

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
        last: Dict[GraphNode, int] = {}
        for version, node in zip(self._touched_versions, self._touched_nodes):
            last[node] = version
        if len(last) > self.MUTATION_LOG_LIMIT:
            # more distinct nodes than the window holds: slide (old behavior)
            self._touched_versions = []
            self._touched_nodes = []
            self._log_base_version = self._version
            return
        entries = sorted(last.items(), key=lambda item: item[1])
        self._touched_versions = [version for _, version in entries]
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
        self.add_triple(Triple(subject, predicate, obj))

    def add_value(self, subject: str, predicate: str, value: object) -> None:
        """Add an entity-to-value triple; *value* is wrapped in a Literal."""
        literal = value if isinstance(value, Literal) else Literal(value)
        self.add_triple(Triple(subject, predicate, literal))

    # ------------------------------------------------------------------ #
    # non-monotone mutations (journalled like the additions above)
    # ------------------------------------------------------------------ #

    def remove_triple(self, triple: Triple) -> None:
        """Remove a triple; removing an absent triple is a no-op (like re-adds).

        The mutation journal records both endpoints, exactly as
        :meth:`add_triple` does, so incremental consumers see deletions and
        insertions through the same ``touched_since`` window.
        """
        if triple not in self._triples:
            return
        term = triple_term(triple.subject, triple.predicate, triple.obj)
        self._triples.discard(triple)
        self._discard_index(self._out, triple.subject, triple)
        self._discard_index(self._in, triple.obj, triple)
        self._discard_index(self._out_by_pred, (triple.subject, triple.predicate), triple.obj)
        self._discard_index(self._in_by_pred, (triple.obj, triple.predicate), triple.subject)
        # a parallel triple (other predicate / direction) may still connect
        # the two endpoints; only drop the undirected edge when none does
        if not self._still_adjacent(triple.subject, triple.obj):
            self._discard_index(self._undirected, triple.subject, triple.obj)
            self._discard_index(self._undirected, triple.obj, triple.subject)
        remaining = self._pred_counts.get(triple.predicate, 0) - 1
        if remaining > 0:
            self._pred_counts[triple.predicate] = remaining
        else:
            self._pred_counts.pop(triple.predicate, None)
        self._fp_acc = (self._fp_acc - term) % _FP_MOD
        self._record_mutation((triple.subject, triple.obj))

    @staticmethod
    def _discard_index(index: Dict, key: object, member: object) -> None:
        members = index.get(key)
        if members is None:
            return
        members.discard(member)
        if not members:
            del index[key]

    def _still_adjacent(self, subject: str, obj: GraphNode) -> bool:
        for triple in self._out.get(subject, ()):
            if triple.obj == obj:
                return True
        if is_entity_ref(obj):
            for triple in self._out.get(obj, ()):
                if triple.obj == subject:
                    return True
        return False

    def remove_edge(self, subject: str, predicate: str, obj: str) -> None:
        """Remove an entity-to-entity triple (absent edge: no-op)."""
        self.remove_triple(Triple(subject, predicate, obj))

    def remove_value(self, subject: str, predicate: str, value: object) -> None:
        """Remove an entity-to-value triple (absent value: no-op)."""
        literal = value if isinstance(value, Literal) else Literal(value)
        self.remove_triple(Triple(subject, predicate, literal))

    def set_value(self, subject: str, predicate: str, value: object) -> None:
        """Replace every value of ``(subject, predicate)`` with *value*.

        The "literal edit" mutation: existing value triples under the
        predicate are removed and the single new value is added, all through
        the journalled mutation primitives.
        """
        literal = value if isinstance(value, Literal) else Literal(value)
        for existing in list(self.objects(subject, predicate)):
            if isinstance(existing, Literal) and existing != literal:
                self.remove_triple(Triple(subject, predicate, existing))
        self.add_triple(Triple(subject, predicate, literal))

    def retype_entity(self, eid: str, etype: str) -> Entity:
        """Change the type of entity *eid* to *etype* (same type: no-op).

        Incident triples are kept — only the type (and the type index)
        changes.  The journal records the entity as touched.
        """
        existing = self.entity(eid)
        if existing.etype == etype:
            return existing
        term = entity_term(eid, etype) - entity_term(eid, existing.etype)
        self._discard_index(self._by_type, existing.etype, eid)
        entity = Entity(eid, etype)
        self._entities[eid] = entity
        self._by_type[etype].add(eid)
        self._fp_acc = (self._fp_acc + term) % _FP_MOD
        self._record_mutation((eid,))
        return entity

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
        """Return a deep (structural) copy of this graph."""
        clone = Graph()
        for entity in self._entities.values():
            clone.add_entity(entity.eid, entity.etype)
        for triple in self._triples:
            clone.add_triple(triple)
        return clone

    # ------------------------------------------------------------------ #
    # basic inspection
    # ------------------------------------------------------------------ #

    @property
    def num_entities(self) -> int:
        """Number of entity nodes."""
        return len(self._entities)

    @property
    def num_triples(self) -> int:
        """Number of triples, i.e. ``|G|`` in the paper's notation."""
        return len(self._triples)

    @property
    def num_nodes(self) -> int:
        """Number of nodes (entities plus distinct value nodes)."""
        return len(self._entities) + len(self.value_nodes())

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Triple):
            return item in self._triples
        if isinstance(item, str):
            return item in self._entities
        return False

    def has_entity(self, eid: str) -> bool:
        """Return True when *eid* is a registered entity."""
        return eid in self._entities

    def entity(self, eid: str) -> Entity:
        """Return the :class:`Entity` record for *eid*."""
        try:
            return self._entities[eid]
        except KeyError:
            raise UnknownEntityError(eid) from None

    def entity_type(self, eid: str) -> str:
        """Return the type of entity *eid*."""
        return self.entity(eid).etype

    def entities(self) -> Iterator[Entity]:
        """Iterate over all entity records."""
        return iter(self._entities.values())

    def entity_ids(self) -> Iterator[str]:
        """Iterate over all entity ids."""
        return iter(self._entities.keys())

    def entities_of_type(self, etype: str) -> List[str]:
        """Return the ids of all entities with type *etype* (sorted)."""
        return sorted(self._by_type.get(etype, ()))

    def types(self) -> Set[str]:
        """Return the set of entity types present in the graph."""
        return {t for t, members in self._by_type.items() if members}

    def predicates(self) -> Set[str]:
        """Return the set of predicates used by triples of this graph.

        O(#predicates), off the live-count index — a predicate whose last
        triple was removed disappears from the answer.
        """
        return set(self._pred_counts)

    def triples(self) -> Iterator[Triple]:
        """Iterate over all triples."""
        return iter(self._triples)

    def has_triple(self, subject: str, predicate: str, obj: GraphNode) -> bool:
        """Return True when the triple ``(subject, predicate, obj)`` exists."""
        return Triple(subject, predicate, obj) in self._triples

    # ------------------------------------------------------------------ #
    # adjacency queries
    # ------------------------------------------------------------------ #

    def out_triples(self, subject: str) -> Set[Triple]:
        """All triples whose subject is *subject*."""
        return self._out.get(subject, set())

    def in_triples(self, obj: GraphNode) -> Set[Triple]:
        """All triples whose object is *obj*."""
        return self._in.get(obj, set())

    def objects(self, subject: str, predicate: str) -> Set[GraphNode]:
        """All objects ``o`` with ``(subject, predicate, o)`` in the graph."""
        return self._out_by_pred.get((subject, predicate), set())

    def subjects(self, predicate: str, obj: GraphNode) -> Set[str]:
        """All subjects ``s`` with ``(s, predicate, obj)`` in the graph."""
        return self._in_by_pred.get((obj, predicate), set())

    def neighbors(self, node: GraphNode) -> Set[GraphNode]:
        """Undirected neighbours of *node* (ignoring predicates and direction)."""
        return self._undirected.get(node, set())

    def degree(self, node: GraphNode) -> int:
        """Undirected degree of *node*."""
        return len(self._undirected.get(node, ()))

    def value_nodes(self) -> Set[Literal]:
        """Return the set of distinct value nodes.

        Off the live in-edge index (an emptied entry is deleted), so a
        literal whose last triple was removed disappears from the answer.
        """
        return {node for node in self._in if not isinstance(node, str)}

    # ------------------------------------------------------------------ #
    # subgraphs and structural queries
    # ------------------------------------------------------------------ #

    def induced_subgraph(self, nodes: Iterable[GraphNode]) -> "Graph":
        """Return the subgraph induced by *nodes*.

        Entity nodes keep their types; a triple is kept when both endpoints
        are in *nodes*.
        """
        keep = set(nodes)
        sub = Graph()
        for node in keep:
            if is_entity_ref(node) and node in self._entities:
                sub.add_entity(node, self._entities[node].etype)
        for node in keep:
            if not is_entity_ref(node):
                continue
            for triple in self._out.get(node, ()):
                if triple.obj in keep:
                    sub.add_triple(triple)
        return sub

    def union(self, other: "Graph") -> "Graph":
        """Return a new graph with the entities and triples of both graphs.

        Raises :class:`DuplicateEntityError` when the two graphs disagree on
        the type of a shared entity id.
        """
        merged = self.copy()
        for entity in other.entities():
            merged.add_entity(entity.eid, entity.etype)
        for triple in other.triples():
            merged.add_triple(triple)
        return merged

    def is_connected(self) -> bool:
        """Return True when the undirected graph is connected (or empty)."""
        nodes = set(self._undirected.keys()) | set(self._entities.keys())
        if not nodes:
            return True
        start = next(iter(nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in self._undirected.get(node, ()):
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen >= nodes

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._entities == other._entities and self._triples == other._triples

    def __hash__(self) -> int:  # graphs are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(entities={self.num_entities}, triples={self.num_triples}, "
            f"types={len(self.types())})"
        )

    # ------------------------------------------------------------------ #
    # summary statistics used by reports and dataset scaling
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, int]:
        """Return a small dictionary of summary statistics."""
        return {
            "entities": self.num_entities,
            "values": len(self.value_nodes()),
            "nodes": self.num_nodes,
            "triples": self.num_triples,
            "types": len(self.types()),
            "predicates": len(self.predicates()),
        }


def merge_graphs(graphs: Sequence[Graph]) -> Graph:
    """Union an arbitrary sequence of graphs into a new graph."""
    merged = Graph()
    for graph in graphs:
        for entity in graph.entities():
            merged.add_entity(entity.eid, entity.etype)
        for triple in graph.triples():
            merged.add_triple(triple)
    return merged
