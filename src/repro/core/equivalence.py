"""The equivalence relation ``Eq`` over entities, backed by union–find.

The chase of Section 3 maintains an equivalence relation ``Eq`` over entity
pairs of the same type: reflexive, symmetric and transitive, seeded with the
node-identity relation ``Eq0 = {(e, e)}``.  Union–find maintains exactly this
closure; merging two classes implements a chase step, and transitivity comes
for free.

Beside the parent pointers the relation keeps, per class of size ≥ 2, the list
of its members, so reading a class costs its size and reading the partition
costs the identified entities — never the number of ids the relation has seen.
The identified-pair count is kept current by every merge.

A finished fixpoint is *frozen* (:meth:`EquivalenceRelation.freeze`): reads
write nothing and merges are refused.  A run that starts from it works on an
:class:`EquivalenceFork`: an O(1) child that may *detach* whole classes of its
frozen base (they read as singletons) and logs merges of its own.  Forks
chain — a recorded fork seeds the next one — and :meth:`EquivalenceFork.flattened`
folds a chain back into one fork over its plain bottom relation, at the cost
of what the chain changed, not of the relation.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union


Pair = Tuple[str, str]

#: a fork chain deeper than this is folded into one fork by
#: :meth:`EquivalenceFork.flattened`, so a read stays a few lookups
MAX_FORK_DEPTH = 8


def canonical_pair(e1: str, e2: str) -> Pair:
    """Return the pair ``(e1, e2)`` in canonical (sorted) order."""
    return (e1, e2) if e1 <= e2 else (e2, e1)


def _class_sets(relation) -> Set[frozenset]:
    return {frozenset(members) for members in relation.nontrivial_classes()}


def _pairs_of(relation) -> Set[Pair]:
    result: Set[Pair] = set()
    for members in relation.nontrivial_classes():
        result.update(itertools.combinations(sorted(members), 2))
    return result


class EquivalenceRelation:
    """A union–find structure over entity ids.

    The relation starts as the identity relation over the ids it has seen;
    unseen ids are implicitly singleton classes (they are added lazily), so an
    ``EquivalenceRelation()`` with no arguments behaves like ``Eq0`` over the
    whole graph.  Every matcher starts from that, so a result's
    :meth:`members` and :meth:`classes` list only the ids its run merged or
    looked up.  A task extends a frozen relation through :meth:`fork`.
    """

    __slots__ = ("_parent", "_members", "_merges", "_pairs")

    #: forks between this relation and its plain bottom (none: it is plain)
    depth = 0

    def __init__(self, members: Iterable[str] = ()) -> None:
        self._parent: Dict[str, str] = {}
        #: root → members of its class, for classes of size ≥ 2 only (a root
        #: without an entry is a singleton)
        self._members: Dict[str, List[str]] = {}
        self._merges = 0
        self._pairs = 0
        for member in members:
            self.add(member)

    # ------------------------------------------------------------------ #
    # union–find internals
    # ------------------------------------------------------------------ #

    def add(self, member: str) -> None:
        """Register *member* as a singleton class (no-op when present)."""
        if member not in self._parent:
            self._parent[member] = member

    def find(self, member: str) -> str:
        """Return the canonical representative of *member*'s class."""
        parent = self._parent
        if member not in parent:
            self.add(member)
            return member
        root = member
        while parent[root] != root:
            root = parent[root]
        # path compression
        while parent[member] != root:
            parent[member], member = root, parent[member]
        return root

    def root(self, member: str) -> str:
        """:meth:`find` that writes nothing, so threads may share the relation."""
        parent = self._parent
        while parent.get(member, member) != member:
            member = parent[member]
        return member

    def merge(self, e1: str, e2: str) -> bool:
        """Identify *e1* and *e2* (a chase step).  Return True when new."""
        r1, r2 = self.find(e1), self.find(e2)
        if r1 == r2:
            return False
        # union by size: the smaller class hangs under the larger one's root
        # and its member list is spliced into the larger one's, so every
        # member is moved O(log n) times over all merges
        kept = self._members.pop(r1, None) or [r1]
        moved = self._members.pop(r2, None) or [r2]
        if len(kept) < len(moved):
            r1, r2, kept, moved = r2, r1, moved, kept
        self._parent[r2] = r1
        self._pairs += len(kept) * len(moved)
        kept.extend(moved)
        self._members[r1] = kept
        self._merges += 1
        return True

    # ------------------------------------------------------------------ #
    # relation queries
    # ------------------------------------------------------------------ #

    def identified(self, e1: str, e2: str) -> bool:
        """True when ``(e1, e2) ∈ Eq`` (including the trivial ``e1 == e2``)."""
        if e1 == e2:
            return True
        if e1 not in self._parent or e2 not in self._parent:
            return False
        return self.find(e1) == self.find(e2)

    def __contains__(self, pair: object) -> bool:
        if isinstance(pair, tuple) and len(pair) == 2:
            return self.identified(pair[0], pair[1])
        return False

    @property
    def merge_count(self) -> int:
        """The number of successful (novel) merges performed so far."""
        return self._merges

    def span(self) -> int:
        """Merges that build the partition from singletons: the identified
        entities minus the classes they form."""
        return self._merges

    def members(self) -> Iterator[str]:
        """Iterate over the ids this relation has seen."""
        return iter(self._parent.keys())

    def classes(self) -> List[Set[str]]:
        """Return all equivalence classes (including singletons)."""
        classes = self.nontrivial_classes()
        classes.extend(
            {member}
            for member, parent in self._parent.items()
            if parent == member and member not in self._members
        )
        return classes

    def nontrivial_classes(self) -> List[Set[str]]:
        """Return the classes of size ≥ 2 (i.e. classes with identified pairs)."""
        return [set(members) for members in self._members.values()]

    def classes_by_root(self) -> Iterable[Tuple[str, List[str]]]:
        """``(representative, members)`` of every class of size ≥ 2 (the
        caller must not change the lists)."""
        return self._members.items()

    def class_members(self, root: str) -> List[str]:
        """The members of the class *root* represents (the caller must not
        change the list)."""
        return self._members.get(root) or [root]

    def class_size(self, root: str) -> int:
        return len(self._members.get(root, ())) or 1

    def class_of(self, member: str) -> Set[str]:
        """Return the class containing *member*."""
        return set(self.class_members(self.find(member)))

    def pairs(self) -> Set[Pair]:
        """All nontrivial identified pairs, canonically ordered.

        This is the result ``chase(G, Σ)`` minus the trivial identity pairs:
        for every class ``{a, b, c}`` the pairs ``(a,b), (a,c), (b,c)`` are
        reported.
        """
        return _pairs_of(self)

    def pair_count(self) -> int:
        """``len(self.pairs())``, kept current by every merge."""
        return self._pairs

    def copy(self) -> "EquivalenceRelation":
        """Return an independent (unfrozen) copy of this relation."""
        clone = EquivalenceRelation()
        clone._parent = dict(self._parent)
        clone._members = {root: list(members) for root, members in self._members.items()}
        clone._merges = self._merges
        clone._pairs = self._pairs
        return clone

    def fork(self, drop: Iterable[str] = ()) -> "EquivalenceFork":
        """An O(1) child: this relation minus the classes *drop* represents,
        plus merges of its own, which it logs.  This relation must not
        change while the child lives."""
        return EquivalenceFork(self, drop)

    def freeze(self) -> "EquivalenceRelation":
        """Make this relation read-only in place (O(1)) and return it."""
        self.__class__ = FrozenEquivalenceRelation
        return self

    def __eq__(self, other: object) -> bool:
        """Same partition: the ids seen only as singletons do not matter."""
        if not isinstance(other, (EquivalenceRelation, EquivalenceFork)):
            return NotImplemented
        if self.pair_count() != other.pair_count():
            return False
        return _class_sets(self) == _class_sets(other)

    def __hash__(self) -> int:  # mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(members={len(self._parent)}, "
            f"identified_pairs={self.pair_count()})"
        )


def _refuse_merge(self, e1: str, e2: str) -> bool:
    raise TypeError(f"a frozen {type(self).__name__} takes no merge; fork it")


class FrozenEquivalenceRelation(EquivalenceRelation):
    """A recorded fixpoint: every read writes nothing, merges are refused."""

    __slots__ = ()

    find = EquivalenceRelation.root
    merge = _refuse_merge

    def add(self, member: str) -> None:
        raise TypeError("a frozen EquivalenceRelation takes no new member; fork it")

    def freeze(self) -> "FrozenEquivalenceRelation":
        return self


Relation = Union[EquivalenceRelation, "EquivalenceFork"]


class EquivalenceFork:
    """A relation over a frozen *base*, which it reads without writing (so
    threads may share the base): the base minus the classes it *detached*
    (their members read as singletons), plus merges of its own, made by a
    union–find over the base's class representatives and logged —
    replaying forks' logs into the base in order gives what their merges,
    made one after another, would.  The identified-pair count and the span
    read what it inherited plus its own merges, never the base's classes.
    It pickles with its base."""

    __slots__ = ("_base", "_detached", "_roots", "_inherited", "log", "depth", "_classes")

    def __init__(self, base: Relation, drop: Iterable[str] = ()) -> None:
        self._base = base
        #: members of the dropped classes (an ordered set)
        self._detached: Dict[str, None] = {}
        pairs, span = base.pair_count(), base.span()
        for root in drop:
            members = base.class_members(root)
            size = len(members)
            pairs -= size * (size - 1) // 2
            span -= size - 1
            self._detached.update(dict.fromkeys(members))
        #: union–find over keys: a detached member, or a base representative
        self._roots = EquivalenceRelation()
        #: (pairs, span) of the base minus the detached classes
        self._inherited = (pairs, span)
        self.log: List[Pair] = []
        self.depth = base.depth + 1
        #: a frozen fork's ``classes_by_root()``, kept once read
        self._classes: Optional[List[Tuple[str, List[str]]]] = None

    def restarted(self) -> "EquivalenceFork":
        """A fork of the same base with the same classes detached and no
        merge of its own yet (O(1): the detached members are shared)."""
        fresh = EquivalenceFork(self._base)
        fresh._detached = self._detached
        fresh._inherited = self._inherited
        return fresh

    def _key(self, member: str) -> str:
        return member if member in self._detached else self._base.root(member)

    def _key_size(self, key: str) -> int:
        return 1 if key in self._detached else self._base.class_size(key)

    def _merged_pairs(self) -> int:
        """The pairs this fork's own merges identified: per class it
        merged, the pairs across its keys' classes."""
        total = 0
        for keys in self._roots._members.values():
            sizes = [self._key_size(key) for key in keys]
            whole = sum(sizes)
            total += whole * (whole - 1) // 2 - sum(size * (size - 1) // 2 for size in sizes)
        return total

    # -- the relation interface -------------------------------------------- #

    def find(self, member: str) -> str:
        return self._roots.find(self._key(member))

    def root(self, member: str) -> str:
        return self._roots.root(self._key(member))

    def identified(self, e1: str, e2: str) -> bool:
        if e1 == e2:
            return True
        detached, root = self._detached, self._base.root
        return self._roots.identified(
            e1 if e1 in detached else root(e1), e2 if e2 in detached else root(e2)
        )

    def inherited(self, e1: str, e2: str) -> bool:
        """Identified in what this fork inherited: its base minus the
        detached classes, before any merge of its own."""
        return e1 == e2 or self._key(e1) == self._key(e2)

    def __contains__(self, pair: object) -> bool:
        if isinstance(pair, tuple) and len(pair) == 2:
            return self.identified(pair[0], pair[1])
        return False

    def merge(self, e1: str, e2: str) -> bool:
        detached, root = self._detached, self._base.root
        if not self._roots.merge(
            e1 if e1 in detached else root(e1), e2 if e2 in detached else root(e2)
        ):
            return False
        self.log.append(canonical_pair(e1, e2))
        return True

    @property
    def merge_count(self) -> int:
        """The merges this fork made (its base's are not counted)."""
        return len(self.log)

    def span(self) -> int:
        return self._inherited[1] + self._roots.merge_count

    def pair_count(self) -> int:
        """What it inherited plus what its merges identified: O(the keys
        this fork merged)."""
        return self._inherited[0] + self._merged_pairs()

    def class_members(self, root: str) -> List[str]:
        found: List[str] = []
        for key in self._roots.class_members(root):
            if key in self._detached:
                found.append(key)
            else:
                found.extend(self._base.class_members(key))
        return found

    def class_size(self, root: str) -> int:
        return sum(map(self._key_size, self._roots.class_members(root)))

    def class_of(self, member: str) -> Set[str]:
        return set(self.class_members(self.root(member)))

    def classes_by_root(self) -> Iterator[Tuple[str, List[str]]]:
        """The base's classes this fork left alone, then the classes it
        merged: the partition read as base plus log, one pass per level."""
        merged = self._roots._members
        joined = {key for keys in merged.values() for key in keys}
        detached = self._detached
        for root, members in self._base.classes_by_root():
            if root not in detached and root not in joined:
                yield root, members
        for root in merged:
            yield root, self.class_members(root)

    def nontrivial_classes(self) -> List[Set[str]]:
        return [set(members) for _root, members in self.classes_by_root()]

    def members(self) -> Iterator[str]:
        return iter(dict.fromkeys(itertools.chain(
            self._base.members(), self._detached, self._roots.members()
        )))

    def classes(self) -> List[Set[str]]:
        classes = self.nontrivial_classes()
        seen = {member for cls in classes for member in cls}
        classes.extend({member} for member in self.members() if member not in seen)
        return classes

    def pairs(self) -> Set[Pair]:
        return _pairs_of(self)

    def copy(self) -> EquivalenceRelation:
        """This partition as an independent plain relation (reads every class)."""
        clone = EquivalenceRelation()
        for _root, (anchor, *others) in self.classes_by_root():
            for other in others:
                clone.merge(anchor, other)
        return clone

    def fork(self, drop: Iterable[str] = ()) -> "EquivalenceFork":
        return EquivalenceFork(self, drop)

    def freeze(self) -> "EquivalenceFork":
        self.__class__ = FrozenEquivalenceFork
        return self

    def flattened(self) -> Relation:
        """This (frozen) relation as one frozen fork over its plain bottom
        relation, or as a frozen plain relation once what the chain changed
        outgrows the bottom.  Costs the chain's detached members and merged
        keys times its depth — never the bottom's classes, until the
        overlay has grown past them."""
        levels: List[EquivalenceFork] = []
        bottom: Relation = self
        while isinstance(bottom, EquivalenceFork):
            levels.append(bottom)
            bottom = bottom._base
        detached: Dict[str, None] = {}
        for level in reversed(levels):
            detached.update(level._detached)
        # the ids any level merged, by the class they end up in here
        touched = dict.fromkeys(
            key
            for level in reversed(levels)
            for keys in level._roots._members.values()
            for key in keys
        )
        if len(detached) + len(touched) > bottom.span():
            return self.copy().freeze()
        flat = EquivalenceFork(bottom)
        flat._detached = detached
        groups: Dict[str, List[str]] = {}
        for member in touched:
            key = member if member in detached else bottom.root(member)
            groups.setdefault(self.root(member), []).append(key)
        for keys in groups.values():
            for key in keys[1:]:
                flat._roots.merge(keys[0], key)
        flat._inherited = (
            self.pair_count() - flat._merged_pairs(),
            self.span() - flat._roots.merge_count,
        )
        return flat.freeze()

    __eq__ = EquivalenceRelation.__eq__
    __hash__ = EquivalenceRelation.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(depth={self.depth}, "
            f"identified_pairs={self.pair_count()})"
        )


class FrozenEquivalenceFork(EquivalenceFork):
    """A recorded fork: every read writes nothing, merges are refused, and
    the partition is kept once read — a held result is encoded again and
    again, and a fork chained on this one reads it level by level."""

    __slots__ = ()

    def classes_by_root(self) -> List[Tuple[str, List[str]]]:
        if self._classes is None:
            self._classes = list(EquivalenceFork.classes_by_root(self))
        return self._classes

    def find(self, member: str) -> str:
        return self._roots.root(self._key(member))

    def identified(self, e1: str, e2: str) -> bool:
        return e1 == e2 or self.root(e1) == self.root(e2)

    merge = _refuse_merge

    def freeze(self) -> "FrozenEquivalenceFork":
        return self
