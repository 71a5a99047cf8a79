"""The pair table: one immutable, copy-on-write container for the pairs of
every artifact a journal window rebases.

The blocked enumeration ``L`` (Section 4.1) and the pairing-filtered
candidates (Section 4.2) read their pairs in enumeration order (per sorted
type, each type's pairs sorted) and by entity.  :class:`PairTable` holds the
*listed* pairs of each type as one sorted list, the pairs kept outside the
lists (*unlisted*: a filtered set's rejected pairs, never sorted), and each
entity's pairs as one frozenset, built on first use.  A table is never
written: :meth:`PairTable.edited` returns the next one, which shares every
list and set the edit leaves as it was.

:func:`edited_sets` is the one copy-on-write rule under the table, and it
edits the other keyed sets of the rebased artifacts too: the blocking token
maps, the product graph's per-entity indexes and both directions of the
dependency map.  What an edit still copies whole (at C level) is the outer
dict of each map it edits, and the unlisted set when that changes.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Collection, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set

from ..core.equivalence import Pair

_NOTHING: FrozenSet = frozenset()


def edited_sets(sets: Dict[Hashable, FrozenSet], dropped: Iterable, added: Iterable) -> Dict:
    """*sets* with the ``(key, value)`` items *dropped* taken out and those
    *added* put in: a C-level copy of the map in which only the keys they
    name are rewritten, each as a new frozenset (deleted when it empties),
    and every other key's set is shared.  *sets* is never written; with no
    edit it is returned itself."""
    lost, gained = _grouped(dropped), _grouped(added)
    if not sets:  # an apply from empty: nothing to drop
        return {key: frozenset(values) for key, values in gained.items()}
    if not lost and not gained:
        return sets
    fresh = dict(sets)
    for key in lost.keys() | gained.keys():
        held = fresh.get(key, _NOTHING).difference(lost.get(key, ())).union(gained.get(key, ()))
        if held:
            fresh[key] = held
        else:
            fresh.pop(key, None)
    return fresh


def _grouped(items: Iterable) -> Dict[Hashable, List]:
    grouped: Dict[Hashable, List] = {}
    for key, value in items:
        grouped.setdefault(key, []).append(value)
    return grouped


def ends(pairs: Iterable) -> Iterable:
    """``(entity, pair)`` for each entity of each of *pairs*: what
    :func:`edited_sets` files a pair under in a per-entity index."""
    return ((entity, pair) for pair in pairs for entity in pair)


def edited_list(kept: List[Pair], dropped: Iterable[Pair], added: Iterable[Pair]) -> List[Pair]:
    """A C-level copy of the sorted list *kept* with *dropped* (which it
    holds) deleted and *added* inserted, each by bisection, or, when the
    batch is at least as long as the list (an apply from empty, a window
    that rewrote most of a type), in bulk by one sort."""
    fresh = list(kept)
    for pair in dropped:
        del fresh[bisect.bisect_left(fresh, pair)]
    added = sorted(added)
    if len(added) >= len(fresh):
        fresh.extend(added)
        fresh.sort()
    else:
        for pair in added:
            bisect.insort(fresh, pair)
    return fresh


class PairTable:
    """A set of pairs read in enumeration order (:meth:`ordered`, or the
    sorted ``lists`` of each type) and by entity (:meth:`touching`).  A
    table whose ``unlisted`` is not a set (an unfiltered candidate set's
    pair sequence) is read, never edited."""

    __slots__ = ("lists", "unlisted", "_by_entity")

    def __init__(
        self,
        lists: Dict[str, List[Pair]],
        unlisted: Collection[Pair] = _NOTHING,
        by_entity: Optional[Dict[str, FrozenSet[Pair]]] = None,
    ) -> None:
        self.lists = lists
        self.unlisted = unlisted
        self._by_entity = by_entity

    def index(self) -> Dict[str, FrozenSet[Pair]]:
        """Entity -> its pairs, listed or not (one pass on first use)."""
        if self._by_entity is None:
            held = itertools.chain(*self.lists.values(), self.unlisted)
            self._by_entity = edited_sets({}, (), ends(held))
        return self._by_entity

    def touching(self, entities: Iterable[str]) -> Set[Pair]:
        """The pairs, listed or not, with an entity in *entities*."""
        index = self.index()
        found: Set[Pair] = set()
        for entity in entities if index else ():
            found.update(index.get(entity, ()))
        return found

    def ordered(self) -> List[Pair]:
        """Every listed pair, by sorted type."""
        return list(itertools.chain.from_iterable(self.lists[t] for t in sorted(self.lists)))

    def edited(
        self, dropped: Set[Pair], added: Mapping[str, Iterable[Pair]], unlisted: Collection = ()
    ) -> "PairTable":
        """The next table: *dropped* (pairs this table holds) gone, *added*
        (type -> pairs) merged into the lists and *unlisted* held outside
        them.  A changed list is copied once (:func:`edited_list`) and the
        entity sets are edited (:func:`edited_sets`); everything else is
        shared with this table.  The index is carried only when this table
        held pairs (only then can a drop read it); otherwise the new table
        builds it on first use."""
        gone_unlisted = dropped.intersection(self.unlisted) if self.unlisted else _NOTHING
        gone: Dict[str, List[Pair]] = {}
        for pair in dropped.difference(gone_unlisted):
            for etype, kept in self.lists.items():
                at = bisect.bisect_left(kept, pair)
                if at < len(kept) and kept[at] == pair:
                    gone.setdefault(etype, []).append(pair)
                    break
        lists = dict(self.lists)
        for etype in gone.keys() | {etype for etype, found in added.items() if found}:
            kept = lists.get(etype, [])
            lists[etype] = edited_list(kept, gone.get(etype, ()), added.get(etype, ()))
        held = self.unlisted
        if gone_unlisted or unlisted:
            held = set(held)
            held -= gone_unlisted
            held.update(unlisted)
        index = None
        if self.unlisted or any(self.lists.values()):
            arrived = itertools.chain(*added.values(), unlisted)
            index = edited_sets(self.index(), ends(dropped), ends(arrived))
        return PairTable(lists, held, index)
