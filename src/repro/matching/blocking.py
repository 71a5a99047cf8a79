"""Blocking layer: sub-quadratic candidate generation via signature joins.

``candidate_pairs`` enumerates every same-type pair — O(n²) per type bucket,
the wall that caps graph size long before the chase does.  This module
replaces that enumeration with *signature-join* candidate generation:

1. For every key, read its **blocking scheme** off the compiled pattern: one
   *signature path* per value variable / constant node
   (:attr:`~repro.core.pattern.GraphPattern.signature_paths`) — the BFS-tree
   path from the designated variable ``x`` to that node, expressed as a
   sequence of ``(predicate, direction, type filter)`` steps.
2. For every entity of the key's target type, compute the **signature** of
   each path: the ids of the literals reachable from the entity by following
   the path's predicate steps through the snapshot's CSR arrays (its
   inverted value index serves the last hop in one pass).  Tokens are literal
   ids, valid within one canonical lineage of snapshots.
3. A pair becomes a candidate for a key iff its signatures *collide*
   (non-empty intersection) on **every** path of that key; the per-type
   candidate set is the union over the type's keys.

Soundness (no false negatives)
------------------------------

If a key ``Q(x)`` identifies ``(e1, e2)`` under *any* ``Eq`` during the
chase, the witnessing instantiation assigns each pattern node a pair of
graph nodes such that every pattern triple is present **in G on each side**
(:class:`~repro.core.eval_guided.GuidedPairEvaluator` checks
``has_triple`` per side; ``Eq`` only relaxes *entity identity across the two
sides*, never triple existence).  Value variables must coincide
(``n1 == n2``) and constants must equal ``d`` on both sides.  Hence for each
signature path ``x = n0 → … → nk`` ending in a value node, both entities
reach a **common literal** by following the same predicate steps — so their
path signatures intersect, on every path.  The condition is purely
structural (graph-only, independent of ``Eq``), so it is necessary at every
point of the chase, including recursive keys whose entity-variable
prerequisites only shrink the match set further.

A key is **certifiable** iff its pattern contains at least one value
variable or constant node; a pattern without any value position yields no
structural filter, so its necessary condition is trivially true.  A type
falls back to full quadratic enumeration when *any* of its keys is
uncertifiable (mode ``"auto"``); mode ``"force"`` raises
:class:`~repro.exceptions.ConfigError` instead.  ``"auto"`` and ``"force"``
produce identical pairs whenever ``"force"`` is accepted.

The emitted pairs are a subset of :func:`~repro.core.chase.candidate_pairs`
in the same order: per sorted target type, canonically ordered pairs sorted
within the type.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.equivalence import Pair
from ..core.graph import Graph
from ..core.key import Key, KeySet
from ..core.pattern import SignaturePath
from ..exceptions import ConfigError
from ..storage import GraphSnapshot
from ..storage.snapshot import snapshot_of

#: The recognised values of the ``blocking`` knob.
BLOCKING_MODES: Tuple[str, ...] = ("off", "auto", "force")


def validate_blocking_mode(mode: object) -> str:
    """Validate a ``blocking`` mode string, raising :class:`ConfigError`."""
    if mode not in BLOCKING_MODES:
        raise ConfigError(
            f"blocking must be one of {'/'.join(BLOCKING_MODES)}, got {mode!r}"
        )
    return mode  # type: ignore[return-value]


@dataclass(frozen=True)
class KeyBlockingScheme:
    """The blocking scheme compiled for one key.

    ``certified`` is True when the soundness argument of the module docstring
    applies (the pattern has at least one value position); ``reason`` records
    why certification failed otherwise.
    """

    key_name: str
    target_type: str
    paths: Tuple[SignaturePath, ...]
    certified: bool
    reason: str = ""


def compile_blocking_scheme(key: Key) -> KeyBlockingScheme:
    """The blocking scheme of *key*: its pattern's signature paths (see the
    module docstring)."""
    paths = key.pattern.signature_paths
    return KeyBlockingScheme(
        key_name=key.name,
        target_type=key.target_type,
        paths=paths,
        certified=bool(paths),
        reason="" if paths else "pattern has no value variable or constant node",
    )


def compile_blocking_schemes(keys: KeySet) -> Tuple[KeyBlockingScheme, ...]:
    """Compile the blocking schemes of every key of *keys*, in key order."""
    return tuple(compile_blocking_scheme(key) for key in keys)


@dataclass
class BlockingStats:
    """Observability record of one blocked candidate generation."""

    mode: str
    #: keyed types enumerated through signature blocks / via quadratic fallback.
    certified_types: int = 0
    fallback_types: int = 0
    #: what full enumeration would have produced: sum of C(|bucket|, 2).
    quadratic_pairs: int = 0
    #: pairs actually emitted.
    enumerated_pairs: int = 0
    #: anchor blocks (>= 2 members) whose pairs were enumerated.
    blocks_touched: int = 0
    index_seconds: float = 0.0
    collision_seconds: float = 0.0
    #: pairing-filter wall clock (set by ``build_filtered_candidates``).
    filter_seconds: float = 0.0

    @property
    def pairs_pruned(self) -> int:
        """Pairs the blocking layer avoided enumerating vs. the quadratic baseline."""
        return max(0, self.quadratic_pairs - self.enumerated_pairs)


#: entity -> non-empty literal-id set; entities with empty signatures are absent.
_PathSignatures = Dict[str, FrozenSet[int]]


class BlockingIndex:
    """Per-key signature index over one snapshot.

    Build with :meth:`build`; enumerate with :meth:`candidate_pairs`; carry
    across journal deltas with :meth:`rebased`, which recomputes signatures
    only for delta-affected entities (signature paths never leave a key's
    radius ball, so the journal window's radius ball covers every possible
    signature change).  Tokens are literal ids, which name the same literals
    only within one :attr:`~repro.storage.GraphSnapshot.lineage`.
    """

    __slots__ = (
        "_snapshot",
        "_schemes",
        "_signatures",
        "build_seconds",
    )

    def __init__(
        self,
        snapshot: GraphSnapshot,
        schemes: Tuple[KeyBlockingScheme, ...],
        signatures: Dict[int, Tuple[_PathSignatures, ...]],
        build_seconds: float,
    ) -> None:
        self._snapshot = snapshot
        self._schemes = schemes
        self._signatures = signatures
        self.build_seconds = build_seconds

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        graph: Graph,
        keys: KeySet,
        *,
        snapshot: Optional[GraphSnapshot] = None,
    ) -> "BlockingIndex":
        """Compile the schemes of *keys* and index every keyed entity.

        Signatures are computed in integer space over the CSR arrays of
        *snapshot* (built from *graph* here when not given); the last hop of
        every path streams the snapshot's inverted value index in one pass.
        """
        snapshot = snapshot_of(graph, snapshot)
        started = time.perf_counter()
        schemes = compile_blocking_schemes(keys)
        signatures: Dict[int, Tuple[_PathSignatures, ...]] = {}
        for index, scheme in enumerate(schemes):
            if scheme.certified:
                signatures[index] = tuple(
                    _path_signatures(snapshot, scheme.target_type, path)
                    for path in scheme.paths
                )
        return cls(
            snapshot=snapshot,
            schemes=schemes,
            signatures=signatures,
            build_seconds=time.perf_counter() - started,
        )

    def rebased(
        self, snapshot: GraphSnapshot, affected_entities: Iterable[str] = ()
    ) -> "BlockingIndex":
        """A new index over *snapshot*, the next graph version, reusing
        signatures.

        Only *affected_entities* (and entities new since the previous
        version) are recomputed; everything else is copied.  The caller must
        pass a superset of the entities whose radius ball a delta touched —
        the session passes the journal window's radius ball, which is
        exactly that set.  *snapshot* must be of this index's lineage, or
        the copied literal ids would name other literals: ``ValueError``.
        """
        if snapshot.lineage is not self._snapshot.lineage:
            raise ValueError("a blocking index rebases only within its snapshot lineage")
        started = time.perf_counter()
        affected = set(affected_entities)
        signatures: Dict[int, Tuple[_PathSignatures, ...]] = {}
        for index, scheme in enumerate(self._schemes):
            if not scheme.certified:
                continue
            # ids never move within a lineage: an id the old bucket lacks is
            # an entity new to the type since the previous version
            old_ids = self._snapshot.type_ids(scheme.target_type)
            bucket = snapshot.type_ids(scheme.target_type).items()
            per_path: List[_PathSignatures] = []
            for path, old in zip(scheme.paths, self._signatures[index]):
                fresh: _PathSignatures = {}
                for node_id, entity in bucket:
                    if entity in affected or node_id not in old_ids:
                        tokens = _entity_signature(snapshot, entity, path)
                    else:
                        tokens = old.get(entity)
                    if tokens:
                        fresh[entity] = tokens
                per_path.append(fresh)
            signatures[index] = tuple(per_path)
        return BlockingIndex(
            snapshot=snapshot,
            schemes=self._schemes,
            signatures=signatures,
            build_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def schemes(self) -> Tuple[KeyBlockingScheme, ...]:
        return self._schemes

    def uncertified(self) -> List[Tuple[str, str]]:
        """``(key name, reason)`` for every key the prover could not certify."""
        return [(s.key_name, s.reason) for s in self._schemes if not s.certified]

    def require_certified(self) -> None:
        """Raise :class:`ConfigError` when any key is uncertified (``force``)."""
        failures = self.uncertified()
        if failures:
            name, reason = failures[0]
            raise ConfigError(
                f"blocking='force' but key {name!r} cannot be certified for "
                f"blocking ({reason}); use blocking='auto' to fall back to "
                f"full enumeration for its target type"
            )

    # ------------------------------------------------------------------ #
    # enumeration
    # ------------------------------------------------------------------ #

    def candidate_pairs(self, mode: str = "auto") -> Tuple[List[Pair], BlockingStats]:
        """The blocked candidate set ``L`` and its stats.

        The result is a subset of the quadratic enumeration in the same
        order: per sorted target type, canonically ordered pairs sorted
        within each type.
        """
        validate_blocking_mode(mode)
        if mode == "off":
            raise ConfigError("BlockingIndex.candidate_pairs requires mode 'auto' or 'force'")
        if mode == "force":
            self.require_certified()
        started = time.perf_counter()
        stats = BlockingStats(mode=mode, index_seconds=self.build_seconds)
        pairs: List[Pair] = []
        target_types = sorted({s.target_type for s in self._schemes})
        for etype in target_types:
            bucket = self._snapshot.entities_of_type(etype)  # sorted entity ids
            count = len(bucket)
            stats.quadratic_pairs += count * (count - 1) // 2
            type_schemes = [
                (index, scheme)
                for index, scheme in enumerate(self._schemes)
                if scheme.target_type == etype
            ]
            if any(not scheme.certified for _, scheme in type_schemes):
                # one uncertified key makes its necessary condition trivially
                # true for the whole bucket: fall back to full enumeration
                stats.fallback_types += 1
                pairs.extend(itertools.combinations(bucket, 2))
                continue
            stats.certified_types += 1
            type_pairs: Set[Pair] = set()
            for index, scheme in type_schemes:
                per_path = self._signatures[index]
                participants = [
                    entity
                    for entity in bucket
                    if all(entity in sigs for sigs in per_path)
                ]
                if len(participants) < 2:
                    continue
                anchor = _most_selective_path(per_path, participants)
                blocks: Dict[int, List[str]] = {}
                anchor_sigs = per_path[anchor]
                for entity in participants:  # sorted, so blocks stay sorted
                    for token in anchor_sigs[entity]:
                        blocks.setdefault(token, []).append(entity)
                others = [
                    sigs for i, sigs in enumerate(per_path) if i != anchor
                ]
                for members in blocks.values():
                    if len(members) < 2:
                        continue
                    stats.blocks_touched += 1
                    for e1, e2 in itertools.combinations(members, 2):
                        if (e1, e2) in type_pairs:
                            continue
                        if all(
                            not sigs[e1].isdisjoint(sigs[e2]) for sigs in others
                        ):
                            type_pairs.add((e1, e2))
            pairs.extend(sorted(type_pairs))
        stats.enumerated_pairs = len(pairs)
        stats.collision_seconds = time.perf_counter() - started
        return pairs, stats


def _most_selective_path(
    per_path: Sequence[_PathSignatures], participants: Sequence[str]
) -> int:
    """The index of the path whose blocks enumerate the fewest raw pairs."""
    best_index = 0
    best_cost: Optional[int] = None
    for index, sigs in enumerate(per_path):
        sizes: Dict[int, int] = {}
        for entity in participants:
            for token in sigs[entity]:
                sizes[token] = sizes.get(token, 0) + 1
        cost = sum(size * (size - 1) // 2 for size in sizes.values())
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_index = index
    return best_index


# ---------------------------------------------------------------------- #
# signature computation
# ---------------------------------------------------------------------- #


def _path_signatures(
    snapshot: GraphSnapshot, etype: str, path: SignaturePath
) -> _PathSignatures:
    """Signatures of every *etype* entity along *path* (empty ones omitted)."""
    fast = _snapshot_signatures(snapshot, etype, path)
    if fast is not None:
        return fast
    result: _PathSignatures = {}
    for entity in snapshot.entities_of_type(etype):
        tokens = _entity_signature(snapshot, entity, path)
        if tokens:
            result[entity] = tokens
    return result


class _LiteralIds:
    """The ids of a snapshot's literals as a bucket (``in`` only), so every
    path level is tested the same way."""

    __slots__ = ("is_literal_id",)

    def __init__(self, snapshot: GraphSnapshot) -> None:
        self.is_literal_id = snapshot.is_literal_id

    def __contains__(self, node_id: int) -> bool:
        return self.is_literal_id(node_id)


def _level(snapshot: GraphSnapshot, etype: Optional[str]):
    """The interned ids a path level admits, as a bucket to test with
    ``in``: those of a type, or the literals'."""
    return _LiteralIds(snapshot) if etype is None else snapshot.type_ids(etype)


def _snapshot_signatures(
    snapshot: GraphSnapshot, etype: str, path: SignaturePath
) -> Optional[_PathSignatures]:
    """Signatures of the whole *etype* bucket, one integer-space pass per hop.

    The path is walked from its value end back to ``x``.  The last hop (a
    value position is always an object) streams the predicate's run of the
    inverted value index; every earlier hop carries the reached literal sets
    one step back over the CSR rows.  Only nodes that reach a literal are
    ever visited, and each is visited once per hop rather than once per
    entity whose walk crosses it.  Returns ``None`` when the snapshot
    carries no value index for the last predicate (legacy instances, unknown
    predicates); the caller then walks entity by entity.
    """
    *hops, last = path.steps
    postings = snapshot.value_postings(snapshot.pred_id(last.predicate))
    if postings is None:
        return None
    want = None
    if path.constant is not None:
        want = snapshot.id_of(path.constant)
        if want is None:
            return {}
    level = _level(snapshot, hops[-1].etype if hops else etype)
    #: node id of the current level -> literal ids it reaches down the path
    reach: Dict[int, Set[int]] = {}
    for literal, subject in zip(*postings):
        if subject in level and (want is None or literal == want):
            found = reach.get(subject)
            if found is None:
                reach[subject] = {literal}
            else:
                found.add(literal)
    for index in range(len(hops) - 1, -1, -1):
        step = hops[index]
        level = _level(snapshot, hops[index - 1].etype if index else etype)
        pid = snapshot.pred_id(step.predicate)
        back = snapshot.in_ids if step.forward else snapshot.out_ids
        carried: Dict[int, Set[int]] = {}
        for node, found in reach.items():
            for source in back(node, pid):
                if source in level:
                    have = carried.get(source)
                    # a set is shared until a second one meets it
                    carried[source] = found if have is None else have | found
        reach = carried
    node_at = snapshot.node_at
    return {node_at(node): frozenset(found) for node, found in reach.items()}


def _entity_signature(
    snapshot: GraphSnapshot, entity: str, path: SignaturePath
) -> FrozenSet[int]:
    """The signature of one entity: ids of the literals reachable along *path*."""
    root = snapshot.id_of(entity)
    if root is None:
        return frozenset()
    frontier: Set[int] = {root}
    for step in path.steps:
        pid = snapshot.pred_id(step.predicate)
        if pid < 0 or not frontier:
            return frozenset()
        reached: Set[int] = set()
        if step.forward:
            for node in frontier:
                reached.update(snapshot.out_ids(node, pid))
        else:
            for node in frontier:
                reached.update(snapshot.in_ids(node, pid))
        level = _level(snapshot, step.etype)
        frontier = {i for i in reached if i in level}
    if path.constant is not None:
        frontier &= {snapshot.id_of(path.constant)}
    return frozenset(frontier)


def blocked_candidate_pairs(
    graph: Graph,
    keys: KeySet,
    *,
    mode: str = "auto",
    snapshot: Optional[GraphSnapshot] = None,
    index: Optional[BlockingIndex] = None,
) -> Tuple[List[Pair], BlockingStats, BlockingIndex]:
    """Convenience wrapper: build (or reuse) an index and enumerate.

    Returns ``(pairs, stats, index)`` so callers can cache the index.
    """
    blocking_index = (
        index
        if index is not None
        else BlockingIndex.build(graph, keys, snapshot=snapshot)
    )
    pairs, stats = blocking_index.candidate_pairs(mode)
    return pairs, stats, blocking_index
