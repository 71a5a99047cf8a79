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
within the type, held as a :class:`~repro.matching.pair_table.PairTable`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.equivalence import Pair
from ..core.graph import Graph
from ..core.key import Key, KeySet
from ..core.pattern import SignaturePath
from ..exceptions import ConfigError
from ..storage import GraphSnapshot
from .pair_table import PairTable, edited_sets

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
    #: anchor blocks (>= 2 members) the collision pass read: all of them on
    #: a full pass, the re-collided entities' on a rebased index.
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
#: literal id -> the participants whose anchor-path signature holds it (a
#: set never changed once built: an apply moves a token to a new one)
_TokenMembers = Dict[int, AbstractSet[str]]
_NO_TOKENS: FrozenSet[int] = frozenset()


def _participants(per_path: Sequence[_PathSignatures], entities: Set[str]) -> Set[str]:
    """The *entities* with a signature on every path of a scheme (C-level
    key intersections, each over the smaller side)."""
    for sigs in per_path:
        entities = sigs.keys() & entities
    return entities


def _moved_tokens(
    members: _TokenMembers,
    old: Sequence[_PathSignatures],
    new: Sequence[_PathSignatures],
    anchor: int,
    entities: Set[str],
) -> _TokenMembers:
    """*members* (the anchor-path tokens of *old*'s participants) carried
    onto *new*: only the tokens of the *entities* whose anchor tokens or
    participation changed are rewritten, each once (:func:`edited_sets`)."""
    was, now = _participants(old, entities), _participants(new, entities)
    old_anchor, new_anchor = old[anchor], new[anchor]
    lost: List[Tuple[int, str]] = []
    gained: List[Tuple[int, str]] = []
    for entity in was | now:
        before = old_anchor[entity] if entity in was else _NO_TOKENS
        after = new_anchor[entity] if entity in now else _NO_TOKENS
        if before != after:
            lost.extend((token, entity) for token in before - after)
            gained.extend((token, entity) for token in after - before)
    return edited_sets(members, lost, gained)


class BlockingIndex:
    """Per-key signature index over one snapshot, and the blocked
    enumeration it collides.

    One rule builds it, :meth:`rebased`: the index of a graph version is the
    index of an older one with the signatures of the affected entities
    rewritten, and :meth:`build` applies it to the empty index, where every
    keyed entity is new to its type (signature paths never leave a key's
    radius ball, so a journal window's radius ball covers every signature
    change).  Enumerate with :meth:`candidate_pairs`.  Tokens are literal
    ids, which name the same literals only within one
    :attr:`~repro.storage.GraphSnapshot.lineage`.
    """

    __slots__ = (
        "_snapshot",
        "_schemes",
        "_signatures",
        "build_seconds",
        "_tokens",
        "_enumerated",
        "_carried",
        "_stats",
    )

    def __init__(
        self,
        snapshot: Optional[GraphSnapshot],
        schemes: Tuple[KeyBlockingScheme, ...],
        signatures: Dict[int, Tuple[_PathSignatures, ...]],
        tokens: Dict[int, Tuple[int, _TokenMembers]],
        build_seconds: float,
    ) -> None:
        #: ``None`` on the empty index, whose type buckets are all empty
        self._snapshot = snapshot
        self._schemes = schemes
        self._signatures = signatures
        self.build_seconds = build_seconds
        #: scheme index -> (anchor path, token -> its participants); the
        #: anchor is the most selective path at the apply from empty
        self._tokens = tokens
        #: the certified enumeration at this version, once collided
        self._enumerated: Optional[PairTable] = None
        #: an ancestor's enumeration and the entities rewritten since, by id
        self._carried: Optional[Tuple[PairTable, Dict[int, str]]] = None
        #: the stats of the collision pass that produced ``_enumerated``
        self._stats: Optional[BlockingStats] = None

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
        """Compile the schemes of *keys* and index every keyed entity: the
        :meth:`rebased` of the empty index onto *snapshot* (*graph*'s
        published one when not given)."""
        snapshot = graph.snapshot() if snapshot is None else snapshot
        schemes = compile_blocking_schemes(keys)
        empty = cls(
            snapshot=None,
            schemes=schemes,
            signatures={
                index: tuple({} for _ in scheme.paths)
                for index, scheme in enumerate(schemes)
                if scheme.certified
            },
            tokens={},
            build_seconds=0.0,
        )
        empty._enumerated = PairTable({etype: [] for etype in empty._type_schemes()})
        return empty.rebased(snapshot)

    def rebased(
        self, snapshot: GraphSnapshot, affected_entities: Iterable[str] = ()
    ) -> "BlockingIndex":
        """A new index over *snapshot*, the next graph version, carried from
        this one by delta: the one construction rule of the index.

        Each path's signatures start as a C-level copy of this index's;
        only the *affected_entities* of a certified type, the entities new to
        the type and the entities that left it are rewritten or deleted, so
        the Python-level work is the delta's, never the bucket's.  When that
        batch is a type's whole bucket (always, from the empty index) the
        bucket is walked one integer-space pass per hop instead of entity by
        entity.  The caller must pass a superset of the entities whose radius
        ball a delta touched — the session passes the journal window's key
        ball, which is exactly that set (an entity new to a type was
        touched, so it is in it too).  *snapshot* must be of this index's
        lineage, or the copied literal ids would name other literals:
        ``ValueError``.

        Each scheme keeps a token -> participants map over one anchor path,
        moved token by token: the apply from empty picks the most selective
        path (the fewest raw pairs in its blocks), and every later apply
        keeps it.  The blocked enumeration rides along: the new index's
        :meth:`candidate_pairs` drops the pairs of every rewritten entity
        from the last enumeration an ancestor made (the empty one, from the
        empty index) and collides only those entities against the token
        maps.  A pair is kept exactly when its signatures intersect on every
        path of some key, whichever path anchors the collision.
        """
        old_snapshot = self._snapshot
        if old_snapshot is not None and snapshot.lineage is not old_snapshot.lineage:
            raise ValueError("a blocking index rebases only within its snapshot lineage")
        started = time.perf_counter()
        affected = _ids_of(snapshot, affected_entities)
        signatures: Dict[int, Tuple[_PathSignatures, ...]] = {}
        tokens: Dict[int, Tuple[int, _TokenMembers]] = {}
        dirty: Dict[int, str] = {}  # id -> entity, rewritten or gone
        for index, scheme in enumerate(self._schemes):
            if not scheme.certified:
                continue
            etype = scheme.target_type
            # ids never move within a lineage, so the membership change of a
            # type is the difference of its two buckets (C-level, and only
            # when the patch regrouped the type)
            old_ids = {} if old_snapshot is None else old_snapshot.type_ids(etype)
            new_ids = snapshot.type_ids(etype)
            rewrite = {i: new_ids[i] for i in new_ids.keys() & affected.keys()}
            left: Dict[int, str] = {}
            if new_ids is not old_ids:
                rewrite.update((i, new_ids[i]) for i in new_ids.keys() - old_ids.keys())
                left = {i: old_ids[i] for i in old_ids.keys() - new_ids.keys()}
            dirty.update(rewrite)
            dirty.update(left)
            old_paths = self._signatures[index]
            per_path: List[_PathSignatures] = []
            for path, old in zip(scheme.paths, old_paths):
                if rewrite and len(rewrite) == len(new_ids):
                    per_path.append(_path_signatures(snapshot, etype, path))
                    continue
                fresh = dict(old)
                for entity in left.values():
                    fresh.pop(entity, None)
                found = _entity_signatures(snapshot, rewrite.values(), path)
                for entity in rewrite.values():
                    if entity not in found:
                        fresh.pop(entity, None)
                fresh.update(found)
                per_path.append(fresh)
            signatures[index] = new_paths = tuple(per_path)
            carried = self._tokens.get(index)
            if carried is None:  # the empty index: choose the anchor, group its path
                tokens[index] = _most_selective_map(new_paths)
            else:
                anchor, members = carried
                tokens[index] = (
                    anchor,
                    _moved_tokens(
                        members, old_paths, new_paths, anchor, {*rewrite.values(), *left.values()}
                    ),
                )
        twin = BlockingIndex(
            snapshot=snapshot,
            schemes=self._schemes,
            signatures=signatures,
            tokens=tokens,
            build_seconds=time.perf_counter() - started,
        )
        if self._enumerated is not None:
            twin._carried = (self._enumerated, dirty)
        elif self._carried is not None:
            state, earlier = self._carried
            twin._carried = (state, {**earlier, **dirty})
        return twin

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
        within each type.  The certified types are collided once per index,
        by delta from the enumeration it carries (see :meth:`rebased`; from
        the empty one, on a built index, that is every pair); a repeated
        call re-reads that pass.
        """
        validate_blocking_mode(mode)
        if mode == "off":
            raise ConfigError("BlockingIndex.candidate_pairs requires mode 'auto' or 'force'")
        if mode == "force":
            self.require_certified()
        enumerated = self._collided()
        stats = replace(self._stats, mode=mode)  # the pass's blocks and seconds
        pairs: List[Pair] = []
        for etype in sorted({s.target_type for s in self._schemes}):
            bucket = self._snapshot.entities_of_type(etype)  # sorted entity ids
            count = len(bucket)
            stats.quadratic_pairs += count * (count - 1) // 2
            certified = enumerated.lists.get(etype)
            if certified is None:
                # one uncertified key makes its necessary condition trivially
                # true for the whole bucket: fall back to full enumeration
                stats.fallback_types += 1
                pairs.extend(itertools.combinations(bucket, 2))
            else:
                stats.certified_types += 1
                pairs.extend(certified)
        stats.enumerated_pairs = len(pairs)
        return pairs, stats

    def pairs_touching(self, entities: Iterable[str]) -> Set[Pair]:
        """The pairs of :meth:`candidate_pairs` with an entity in *entities*,
        read off the per-entity pair index (and, for a fallback type, the
        entity's bucket): work for the entities, not for ``L``."""
        entities = list(entities)
        found = self._collided().touching(entities)
        fallback = {s.target_type for s in self._schemes} - self._enumerated.lists.keys()
        if fallback:
            found |= quadratic_pairs_touching(self._snapshot, fallback, entities)
        return found

    def _collided(self) -> PairTable:
        """The certified enumeration at this version, collided on first use
        by delta from the carried ancestor's (see :meth:`rebased`)."""
        if self._enumerated is None:
            started = time.perf_counter()
            stats = BlockingStats(mode="auto", index_seconds=self.build_seconds)
            self._enumerated = self._recollide(*self._carried, stats)
            self._carried = None
            stats.collision_seconds = time.perf_counter() - started
            self._stats = stats
        return self._enumerated

    def _type_schemes(self) -> Dict[str, List[int]]:
        """Certified type -> its schemes' indices (a type with an uncertified
        key is absent: it falls back to full enumeration)."""
        by_type: Dict[str, List[int]] = {}
        fallback: Set[str] = set()
        for index, scheme in enumerate(self._schemes):
            if scheme.certified:
                by_type.setdefault(scheme.target_type, []).append(index)
            else:
                fallback.add(scheme.target_type)
        return {etype: found for etype, found in by_type.items() if etype not in fallback}

    def _recollide(
        self, state: PairTable, dirty_ids: Dict[int, str], stats: BlockingStats
    ) -> PairTable:
        """*state*, an ancestor's enumeration, carried onto this index: the
        pairs of every dirty entity (*dirty_ids*: id -> entity, rewritten
        since *state*) are dropped, and the dirty entities still in a
        certified type are collided again against the anchor path's token
        map (:meth:`PairTable.edited`, which leaves *state* as it was).

        A block (a token of the anchor path) counts as touched when a dirty
        participant holds it beside another participant: every block with
        two participants on a pass from the empty state.  A pair of two
        dirty entities is taken from its first entity's side only.
        """
        snapshot = self._snapshot
        dropped = state.touching(dirty_ids.values())
        # re-collide the dirty entities by their type on this version, block
        # by block: the anchor tokens the dirty participants hold
        blocks: Set[Tuple[int, int]] = set()
        added: Dict[str, Set[Pair]] = {}
        for etype, indices in self._type_schemes().items():
            bucket = snapshot.type_ids(etype)
            entities = {bucket[i] for i in bucket.keys() & dirty_ids.keys()}
            found = added[etype] = set()
            for index in indices:
                per_path = self._signatures[index]
                anchor, members_of = self._tokens[index]
                others = [sigs for i, sigs in enumerate(per_path) if i != anchor]
                mine = _participants(per_path, entities)
                # the blocks the rewritten participants hold: read off their
                # tokens, or, when they outnumber the blocks, off the map
                held = (
                    members_of.keys()
                    if len(mine) >= len(members_of)
                    else _NO_TOKENS.union(*map(per_path[anchor].__getitem__, mine))
                )
                for token in held:
                    members = members_of[token]
                    if len(members) < 2:
                        continue
                    for entity in members:
                        if entity not in mine:
                            continue
                        blocks.add((index, token))
                        for other in members:
                            if other == entity or (other < entity and other in mine):
                                continue
                            pair = (entity, other) if entity < other else (other, entity)
                            if pair not in found and all(
                                not sigs[entity].isdisjoint(sigs[other]) for sigs in others
                            ):
                                found.add(pair)
        stats.blocks_touched = len(blocks)
        return state.edited(dropped, added)


def _ids_of(snapshot: GraphSnapshot, entities: Iterable[str]) -> Dict[int, str]:
    """Interned id -> entity, for the *entities* the snapshot holds, so a
    type bucket meets them in one C-level key intersection."""
    found: Dict[int, str] = {}
    for entity in entities:
        node_id = snapshot.id_of(entity)
        if node_id is not None:
            found[node_id] = entity
    return found


def quadratic_pairs_touching(
    snapshot: GraphSnapshot, target_types: Iterable[str], entities: Iterable[str]
) -> Set[Pair]:
    """The quadratic enumeration's pairs with an entity in *entities*: each
    entity of one of *target_types* with every other member of its bucket."""
    keyed = set(target_types)
    found: Set[Pair] = set()
    for entity in entities:
        if not snapshot.has_entity(entity):
            continue
        etype = snapshot.entity_type(entity)
        if etype in keyed:
            for other in snapshot.type_ids(etype).values():
                if other != entity:
                    found.add((entity, other) if entity < other else (other, entity))
    return found


def _most_selective_map(per_path: Sequence[_PathSignatures]) -> Tuple[int, _TokenMembers]:
    """A scheme's token map from nothing: the path whose blocks enumerate
    the fewest raw pairs among the scheme's participants (the entities with
    a signature on every path; the first such path on a tie), and its
    participants grouped by token."""
    participants = _participants(per_path, set(per_path[0]))
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
    groups: Dict[int, Set[str]] = {}
    anchor_sigs = per_path[best_index]
    for entity in participants:
        for token in anchor_sigs[entity]:
            groups.setdefault(token, set()).add(entity)
    return best_index, groups


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
    return _entity_signatures(snapshot, snapshot.entities_of_type(etype), path)


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


def _entity_signatures(
    snapshot: GraphSnapshot, entities: Iterable[str], path: SignaturePath
) -> _PathSignatures:
    """The non-empty signatures of *entities* along *path*: the ids of the
    literals each reaches, one walk per entity with the path's predicate ids
    and level buckets looked up once."""
    steps = []
    for step in path.steps:
        pid = snapshot.pred_id(step.predicate)
        if pid < 0:
            return {}
        read = snapshot.out_ids if step.forward else snapshot.in_ids
        steps.append((read, pid, _level(snapshot, step.etype)))
    want: Optional[Set[int]] = None
    if path.constant is not None:
        want = {snapshot.id_of(path.constant)}
    found: _PathSignatures = {}
    for entity in entities:
        root = snapshot.id_of(entity)
        if root is None:
            continue
        frontier: Set[int] = {root}
        for read, pid, level in steps:
            reached: Set[int] = set()
            for node in frontier:
                reached.update(read(node, pid))
            frontier = {i for i in reached if i in level}
            if not frontier:
                break
        if want is not None:
            frontier &= want
        if frontier:
            found[entity] = frozenset(frontier)
    return found

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
