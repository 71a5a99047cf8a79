"""Property-based tests of the union–find equivalence relation."""

from __future__ import annotations

import pickle
from typing import List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equivalence import EquivalenceRelation

members = st.sampled_from([f"e{i}" for i in range(8)])
merge_lists = st.lists(st.tuples(members, members), max_size=25)


@given(merges=merge_lists)
@settings(max_examples=60, deadline=None)
def test_relation_is_an_equivalence(merges):
    """Reflexive, symmetric and transitive after any sequence of merges."""
    eq = EquivalenceRelation([f"e{i}" for i in range(8)])
    for e1, e2 in merges:
        eq.merge(e1, e2)
    members_list = [f"e{i}" for i in range(8)]
    for a in members_list:
        assert eq.identified(a, a)
        for b in members_list:
            assert eq.identified(a, b) == eq.identified(b, a)
            for c in members_list:
                if eq.identified(a, b) and eq.identified(b, c):
                    assert eq.identified(a, c)


@given(merges=merge_lists)
@settings(max_examples=60, deadline=None)
def test_merge_order_is_irrelevant(merges):
    forward = EquivalenceRelation()
    backward = EquivalenceRelation()
    for e1, e2 in merges:
        forward.merge(e1, e2)
    for e1, e2 in reversed(merges):
        backward.merge(e2, e1)
    assert forward.pairs() == backward.pairs()


@given(merges=merge_lists)
@settings(max_examples=60, deadline=None)
def test_pairs_consistent_with_classes(merges):
    eq = EquivalenceRelation()
    for e1, e2 in merges:
        eq.merge(e1, e2)
    pairs = eq.pairs()
    expected = sum(len(c) * (len(c) - 1) // 2 for c in eq.classes())
    assert len(pairs) == expected
    assert all(a < b for a, b in pairs)


# ---------------------------------------------------------------------- #
# the relation against a naive partition model
# ---------------------------------------------------------------------- #

UNIVERSE = [f"e{i}" for i in range(10)]
universe_members = st.sampled_from(UNIVERSE)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), universe_members),
        st.tuples(st.just("merge"), universe_members, universe_members),
        st.tuples(st.just("find"), universe_members),
        st.just(("copy",)),
        st.just(("pickle",)),
    ),
    max_size=40,
)


class NaivePartition:
    """The model: a list of disjoint blocks, scanned on every question."""

    def __init__(self) -> None:
        self.blocks: List[Set[str]] = []
        self.merges = 0

    def block(self, member: str) -> Set[str]:
        for block in self.blocks:
            if member in block:
                return block
        block = {member}
        self.blocks.append(block)
        return block

    def merge(self, e1: str, e2: str) -> bool:
        b1, b2 = self.block(e1), self.block(e2)
        if b1 is b2:
            return False
        self.blocks.remove(b2)
        b1 |= b2
        self.merges += 1
        return True

    def copy(self) -> "NaivePartition":
        twin = NaivePartition()
        twin.blocks = [set(block) for block in self.blocks]
        twin.merges = self.merges
        return twin

    def seen(self) -> Set[str]:
        return {member for block in self.blocks for member in block}

    def pairs(self) -> Set[Tuple[str, str]]:
        return {
            (a, b) for block in self.blocks for a in block for b in block if a < b
        }


def assert_agrees(eq: EquivalenceRelation, model: NaivePartition) -> None:
    blocks = {frozenset(block) for block in model.blocks}
    nontrivial = {block for block in blocks if len(block) > 1}
    seen = model.seen()

    assert set(eq.members()) == seen
    classes = eq.classes()
    assert {frozenset(cls) for cls in classes} == blocks
    assert sum(len(cls) for cls in classes) == len(seen)  # no class reported twice
    listed = eq.nontrivial_classes()
    assert {frozenset(cls) for cls in listed} == nontrivial
    assert len(listed) == len(nontrivial)
    for member in seen:
        assert eq.class_of(member) == model.block(member)
    assert eq.pairs() == model.pairs()
    assert eq.pair_count() == len(model.pairs())
    assert eq.merge_count == model.merges
    for a in UNIVERSE:
        for b in UNIVERSE:
            same = a == b or (a in seen and b in seen and model.block(a) is model.block(b))
            assert eq.identified(a, b) == same
    assert set(eq.members()) == seen  # identified() registers nothing

    # ``==`` is equality of partitions: neither the merge history nor the
    # ids seen only as singletons take part
    rebuilt = EquivalenceRelation(["never_merged"])
    for block in sorted(nontrivial, key=sorted, reverse=True):
        anchor, *others = sorted(block, reverse=True)
        for other in others:
            rebuilt.merge(other, anchor)
    assert eq == rebuilt and rebuilt == eq
    rebuilt.merge(UNIVERSE[0], "never_merged")
    assert eq != rebuilt


@given(ops=operations)
@settings(max_examples=150, deadline=None)
def test_relation_agrees_with_naive_partition_model(ops):
    """Any interleaving of add / merge / find / copy / pickle round-trip."""
    eq, model = EquivalenceRelation(), NaivePartition()
    #: (relation, model) pairs left behind by ``copy``: they must never move
    originals = []
    for op in ops:
        if op[0] == "add":
            eq.add(op[1])
            model.block(op[1])
        elif op[0] == "merge":
            assert eq.merge(op[1], op[2]) == model.merge(op[1], op[2])
        elif op[0] == "find":
            block = model.block(op[1])
            root = eq.find(op[1])
            assert root in block
            assert all(eq.find(member) == root for member in block)
        elif op[0] == "copy":
            originals.append((eq, model))
            eq, model = eq.copy(), model.copy()
        else:  # the process executor ships Eq to its workers
            eq = pickle.loads(pickle.dumps(eq))
        assert_agrees(eq, model)
    for original, original_model in originals:
        assert_agrees(original, original_model)
