"""The equivalence relation ``Eq`` over entities, backed by union–find.

The chase of Section 3 maintains an equivalence relation ``Eq`` over entity
pairs of the same type: reflexive, symmetric and transitive, seeded with the
node-identity relation ``Eq0 = {(e, e)}``.  Union–find maintains exactly this
closure; merging two classes implements a chase step, and transitivity comes
for free.

Beside the parent pointers the relation keeps, per class of size ≥ 2, the list
of its members, so reading a class costs its size and reading the partition
costs the identified entities — never the number of ids the relation has seen.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Set, Tuple


Pair = Tuple[str, str]


def canonical_pair(e1: str, e2: str) -> Pair:
    """Return the pair ``(e1, e2)`` in canonical (sorted) order."""
    return (e1, e2) if e1 <= e2 else (e2, e1)


class EquivalenceRelation:
    """A union–find structure over entity ids.

    The relation starts as the identity relation over the ids it has seen;
    unseen ids are implicitly singleton classes (they are added lazily), so an
    ``EquivalenceRelation()`` with no arguments behaves like ``Eq0`` over the
    whole graph.  Every matcher starts from that, so a result's
    :meth:`members` and :meth:`classes` list only the ids its run merged or
    looked up.  A task extends a frozen relation through :meth:`fork`.
    """

    __slots__ = ("_parent", "_members", "_merges")

    def __init__(self, members: Iterable[str] = ()) -> None:
        self._parent: Dict[str, str] = {}
        #: root → members of its class, for classes of size ≥ 2 only (a root
        #: without an entry is a singleton)
        self._members: Dict[str, List[str]] = {}
        self._merges = 0
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

    def class_of(self, member: str) -> Set[str]:
        """Return the class containing *member*."""
        root = self.find(member)
        return set(self._members.get(root, (root,)))

    def pairs(self) -> Set[Pair]:
        """All nontrivial identified pairs, canonically ordered.

        This is the result ``chase(G, Σ)`` minus the trivial identity pairs:
        for every class ``{a, b, c}`` the pairs ``(a,b), (a,c), (b,c)`` are
        reported.
        """
        result: Set[Pair] = set()
        for members in self._members.values():
            result.update(itertools.combinations(sorted(members), 2))
        return result

    def pair_count(self) -> int:
        """``len(self.pairs())``, from the class sizes alone."""
        return sum(
            len(members) * (len(members) - 1) // 2 for members in self._members.values()
        )

    def copy(self) -> "EquivalenceRelation":
        """Return an independent copy of this relation."""
        clone = EquivalenceRelation()
        clone._parent = dict(self._parent)
        clone._members = {root: list(members) for root, members in self._members.items()}
        clone._merges = self._merges
        return clone

    def fork(self) -> "EquivalenceFork":
        """An O(1) child: this relation plus merges of its own, which it logs.
        This relation must not change while the child lives."""
        return EquivalenceFork(self)

    def __eq__(self, other: object) -> bool:
        """Same partition: the ids seen only as singletons do not matter."""
        if not isinstance(other, EquivalenceRelation):
            return NotImplemented
        if len(self._members) != len(other._members):
            return False
        return {frozenset(members) for members in self._members.values()} == {
            frozenset(members) for members in other._members.values()
        }

    def __hash__(self) -> int:  # mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EquivalenceRelation(members={len(self._parent)}, "
            f"identified_pairs={self.pair_count()})"
        )


class EquivalenceFork:
    """A union–find over the roots of a frozen parent, which it reads without
    writing (so threads may share the parent), plus the log of its novel
    merges: replaying forks' logs into the parent in order gives what their
    merges, made one after another, would.  It pickles with its parent."""

    __slots__ = ("_base", "_roots", "log")

    def __init__(self, base: EquivalenceRelation) -> None:
        self._base = base
        self._roots = EquivalenceRelation()
        self.log: List[Pair] = []

    def identified(self, e1: str, e2: str) -> bool:
        find, root = self._roots.find, self._base.root
        return e1 == e2 or find(root(e1)) == find(root(e2))

    def merge(self, e1: str, e2: str) -> bool:
        if not self._roots.merge(self._base.root(e1), self._base.root(e2)):
            return False
        self.log.append(canonical_pair(e1, e2))
        return True
