"""d-neighbourhood extraction (Section 4.1), in integer space.

For an entity ``e`` and radius ``d`` (the maximum radius of the keys defined
on ``e``'s type), the *d-neighbour* ``G^d`` of ``e`` is the subgraph of ``G``
induced by the nodes within ``d`` hops of ``e``, ignoring edge direction.
The data-locality property the algorithms exploit is that
``(G, Σ) |= (e1, e2)`` iff ``(G^d_1 ∪ G^d_2, Σ) |= (e1, e2)``, so the
per-pair checks take the two node *sets* as a restriction on the reads of
the whole snapshot and never copy a subgraph.

:class:`SnapshotNeighborhoodIndex` caches those sets per entity:

* the BFS runs over the snapshot's CSR arrays
  (:meth:`GraphSnapshot.neighborhood_ids`) instead of hashing node objects
  edge by edge;
* pickling encodes every cached node set as a sorted array of interned ids —
  the compact payload the MR worker cache and the VC engine replicas ship
  once per worker — and decodes entries lazily on first use in the worker;
* :meth:`SnapshotNeighborhoodIndex.rebased` migrates still-fresh cache
  entries onto a patched snapshot after a graph mutation (the session's
  journal-driven selective invalidation).
"""

from __future__ import annotations

from typing import Dict, Iterable, Set

from ..core.key import KeySet
from ..core.triples import GraphNode, is_entity_ref
from .snapshot import GraphSnapshot


def entities_within(snapshot: GraphSnapshot, roots: Iterable[GraphNode], radius: int) -> Set[str]:
    """The entities within *radius* undirected hops of a node of *roots*,
    by one BFS from all of them at once over *snapshot* (a root the
    snapshot does not hold is skipped).  A node is in the union of the
    per-root balls exactly when its distance to the nearest root is within
    the radius."""
    frontier = [root for root in map(snapshot.id_of, roots) if root is not None]
    seen = set(frontier)
    adjacency = snapshot.adjacency
    for _ in range(radius):
        reached = []
        for node in frontier:
            for neighbour in adjacency(node):
                if neighbour not in seen:
                    seen.add(neighbour)
                    reached.append(neighbour)
        frontier = reached
    return set(filter(is_entity_ref, snapshot.decode_ids(seen)))


def radius_per_type(keys: KeySet) -> Dict[str, int]:
    """The neighbourhood radius to use for each keyed type.

    This is the maximum radius over the keys defined on the type, as in the
    construction of ``G^d`` in Section 4.1.
    """
    return {etype: keys.max_radius_for_type(etype) for etype in keys.target_types()}


class SnapshotNeighborhoodIndex:
    """A cache of d-neighbourhood node sets for the entities of keyed types.

    Algorithm ``EMMR`` constructs d-neighbourhoods for all entities appearing
    in the candidate set and caches them across rounds (the paper caches them
    on worker disks, Haloop-style).  This index plays that role in-process,
    and also reports the total and maximum neighbourhood sizes, which feed the
    cost model and the optimization-effectiveness statistics.
    """

    def __init__(self, snapshot: GraphSnapshot, keys: KeySet) -> None:
        self._snapshot = snapshot
        self._radius = radius_per_type(keys)
        self._cache: Dict[str, Set[GraphNode]] = {}
        # entries arriving through pickle stay id-encoded until first use
        self._encoded: Dict[str, object] = {}
        # entry size -> number of entries of that size (cached or encoded),
        # so the accounting below costs the distinct sizes, not the entries
        self._sizes: Dict[int, int] = {}

    def _counted(self, size: int, step: int) -> None:
        left = self._sizes.get(size, 0) + step
        if left:
            self._sizes[size] = left
        else:
            del self._sizes[size]

    @property
    def snapshot(self) -> GraphSnapshot:
        return self._snapshot

    # ------------------------------------------------------------------ #
    # cache access (integer-space BFS)
    # ------------------------------------------------------------------ #

    def radius_for(self, entity: str) -> int:
        """The radius used for *entity* (0 when its type has no keys)."""
        return self._radius.get(self._snapshot.entity_type(entity), 0)

    def nodes(self, entity: str) -> Set[GraphNode]:
        """The (cached) d-neighbourhood node set of *entity*."""
        cached = self._cache.get(entity)
        if cached is None:
            encoded = self._encoded.pop(entity, None)
            if encoded is not None:
                cached = self._snapshot.decode_ids(encoded)  # as many as encoded
            else:
                cached = self._snapshot.neighborhood_nodes(
                    entity, self.radius_for(entity)
                )
                self._counted(len(cached), 1)
            self._cache[entity] = cached
        return cached

    def precompute(self, entities: Iterable[str]) -> None:
        """Eagerly compute the neighbourhoods of *entities*."""
        for entity in entities:
            self.nodes(entity)

    def evict(self, entity: str) -> None:
        """Drop the cached neighbourhood of *entity* (recomputed on demand)."""
        for entries in (self._cache, self._encoded):
            dropped = entries.pop(entity, None)
            if dropped is not None:
                self._counted(len(dropped), -1)

    def restrict(self, entity: str, allowed: Set[GraphNode]) -> None:
        """Shrink the cached neighbourhood of *entity* to ``allowed`` nodes.

        Used by the optimization of Section 4.2 that reduces ``(G^d_1, G^d_2)``
        to the nodes appearing in the maximum pairing relation.  The entity
        itself is always kept.
        """
        current = self.nodes(entity)
        restricted = self._cache[entity] = (current & allowed) | {entity}
        self._counted(len(current), -1)
        self._counted(len(restricted), 1)

    def clone(self) -> "SnapshotNeighborhoodIndex":
        """A copy sharing the already-computed node sets.

        The cache *entries* are shared (they are never mutated in place:
        :meth:`restrict` replaces them with fresh sets), so a clone lets one
        consumer reduce its neighbourhoods without staling the original —
        the mechanism the session cache uses to serve both reduced and
        unreduced algorithm families from one BFS pass.
        """
        twin = object.__new__(SnapshotNeighborhoodIndex)
        twin._snapshot = self._snapshot
        twin._radius = dict(self._radius)
        twin._cache = dict(self._cache)
        twin._encoded = dict(self._encoded)
        twin._sizes = dict(self._sizes)
        return twin

    def rebased(
        self, snapshot: GraphSnapshot, evict: Iterable[str] = ()
    ) -> "SnapshotNeighborhoodIndex":
        """This index rebuilt over *snapshot*, dropping the *evict* entries.

        Cache entries that survive are node sets, which stay valid across
        snapshot rebuilds (only the *evicted* entities could have been staled
        by the mutation — the session computes that set from the journal).
        """
        twin = self.clone()
        twin._snapshot = snapshot
        for entity in evict:
            twin.evict(entity)
        # old-snapshot encodings cannot be decoded by the new snapshot
        for entity in list(twin._encoded):
            twin._cache.setdefault(entity, self._snapshot.decode_ids(twin._encoded[entity]))
            del twin._encoded[entity]
        return twin

    def rekeyed(
        self, keys: KeySet, evict: Iterable[str] = ()
    ) -> "SnapshotNeighborhoodIndex":
        """This index under a new key set, dropping the *evict* entries.

        A key-set delta changes per-type radii only for the types whose keys
        changed; passing those types' entities as *evict* keeps every other
        cached neighbourhood (its type's radius — and the graph — are
        untouched, so the cached node set is still exact).
        """
        twin = self.clone()
        twin._radius = radius_per_type(keys)
        for entity in evict:
            twin.evict(entity)
        return twin

    # ------------------------------------------------------------------ #
    # accounting (include still-encoded entries)
    # ------------------------------------------------------------------ #

    def total_size(self) -> int:
        """Total number of nodes over all cached neighbourhoods."""
        return sum(size * count for size, count in self._sizes.items())

    def max_size(self) -> int:
        """Size of the largest cached neighbourhood (``|G^d_m|``)."""
        return max(self._sizes, default=0)

    def cached_entities(self) -> Set[str]:
        return set(self._cache.keys()) | set(self._encoded.keys())

    def __len__(self) -> int:
        return len(self.cached_entities())

    # ------------------------------------------------------------------ #
    # pickling: ship interned-id arrays, decode lazily in the worker
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        encoded = dict(self._encoded)
        for entity, nodes in self._cache.items():
            encoded[entity] = self._snapshot.encode_nodes(nodes)
        return (self._snapshot, dict(self._radius), encoded)

    def __setstate__(self, state) -> None:
        snapshot, radius, encoded = state
        self._snapshot = snapshot
        self._radius = radius
        self._cache = {}
        self._encoded = encoded
        self._sizes = {}
        for ids in encoded.values():
            self._counted(len(ids), 1)
