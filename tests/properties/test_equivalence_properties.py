"""Property-based tests of the union–find equivalence relation."""

from __future__ import annotations

import pickle
from typing import List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equivalence import MAX_FORK_DEPTH, EquivalenceRelation

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


# ---------------------------------------------------------------------- #
# forks: what a reduce task runs against
# ---------------------------------------------------------------------- #

universe_merges = st.lists(st.tuples(universe_members, universe_members), max_size=12)


def assert_identifies_as(relation, model: NaivePartition) -> None:
    """*relation* answers ``identified`` as *model*'s blocks, whichever ids
    either of them has seen."""
    for a in UNIVERSE:
        for b in UNIVERSE:
            same = a == b or any(a in block and b in block for block in model.blocks)
            assert relation.identified(a, b) == same


@given(parent_merges=universe_merges, task_merges=st.lists(universe_merges, max_size=4))
@settings(max_examples=150, deadline=None)
def test_forks_extend_a_frozen_parent_and_replay_to_sequential_merges(
    parent_merges, task_merges
):
    eq, model = EquivalenceRelation(), NaivePartition()
    for e1, e2 in parent_merges:
        eq.merge(e1, e2)
        model.merge(e1, e2)
    frozen, sequential = model.copy(), model.copy()
    forks = []
    for merges in task_merges:
        fork, fork_model = eq.fork(), frozen.copy()
        for e1, e2 in merges:
            assert fork.merge(e1, e2) == fork_model.merge(e1, e2)
            sequential.merge(e1, e2)
        assert_identifies_as(fork, fork_model)
        assert_agrees(eq, frozen)  # the parent did not move
        shipped = pickle.loads(pickle.dumps(fork))  # a process pool's task
        assert shipped.log == fork.log
        assert_identifies_as(shipped, fork_model)
        forks.append(shipped)
    # absorb: the logs replayed into the parent in task order
    for fork in forks:
        for e1, e2 in fork.log:
            eq.merge(e1, e2)
    assert_identifies_as(eq, sequential)
    assert eq.pairs() == sequential.pairs()
    assert eq.merge_count == sequential.merges


def test_forks_on_threads_leave_their_shared_parent_untouched():
    """A thread pool's reduce tasks fork one parent at once.  With more
    threads than cores and a short switch interval, the parent's bytes do not
    move (no fork compresses a path in it) and each fork answers for the
    parent plus its own merges alone."""
    import sys
    import threading

    tasks, blocks = 8, 64
    parent = EquivalenceRelation()
    for k in range(blocks):
        # two classes of four per block, each with a path of length two
        for base in (8 * k, 8 * k + 4):
            a0, a1, a2, a3 = (f"e{base + i}" for i in range(4))
            parent.merge(a0, a1), parent.merge(a2, a3), parent.merge(a0, a2)
    frozen = pickle.dumps(parent)
    logs, wrong = [None] * tasks, []

    def task(t):
        fork = parent.fork()
        for k in range(t, blocks, tasks):
            fork.merge(f"e{8 * k + 1}", f"e{8 * k + 5}")
        for _ in range(20):
            for k in range(blocks):
                if fork.identified(f"e{8 * k + 3}", f"e{8 * k + 7}") != (k % tasks == t):
                    wrong.append((t, k))
        logs[t] = fork.log

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=task, args=(t,)) for t in range(tasks)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert pickle.dumps(parent) == frozen
    merges = parent.merge_count
    for log in logs:
        for e1, e2 in log:
            parent.merge(e1, e2)
    assert parent.merge_count == merges + blocks
    assert all(parent.identified(f"e{8 * k}", f"e{8 * k + 7}") for k in range(blocks))


# ---------------------------------------------------------------------- #
# seed forks: what a delta run starts from
# ---------------------------------------------------------------------- #

windows = st.lists(
    st.tuples(st.lists(universe_members, max_size=3), universe_merges), max_size=12
)


def assert_partition(relation, model: NaivePartition) -> None:
    """*relation* holds *model*'s partition, read every way a run reads it."""
    nontrivial = {frozenset(block) for block in model.blocks if len(block) > 1}
    assert {frozenset(cls) for cls in relation.nontrivial_classes()} == nontrivial
    assert len(relation.nontrivial_classes()) == len(nontrivial)
    assert relation.pairs() == model.pairs()
    assert relation.pair_count() == len(model.pairs())
    assert relation.span() == sum(len(block) - 1 for block in nontrivial)
    assert_identifies_as(relation, model)
    for member in UNIVERSE:
        assert relation.class_of(member) == model.block(member)
    rebuilt = EquivalenceRelation()
    for block in nontrivial:
        anchor, *others = sorted(block)
        for other in others:
            rebuilt.merge(anchor, other)
    assert relation == rebuilt and rebuilt == relation


@given(first=universe_merges, steps=windows)
@settings(max_examples=150, deadline=None)
def test_a_fork_chain_detaches_whole_classes_and_flattens_to_the_same_partition(
    first, steps
):
    """Each window freezes the relation, forks it with the classes of a few
    members dropped (they read as singletons) and merges into the fork, as
    a delta run does; a chain past the depth bound folds into one fork."""
    eq, model = EquivalenceRelation(), NaivePartition()
    for e1, e2 in first:
        eq.merge(e1, e2)
        model.merge(e1, e2)
    for dropped, merges in steps:
        frozen = eq.freeze()
        before = pickle.dumps(frozen)
        with pytest.raises(TypeError):
            frozen.merge(UNIVERSE[0], UNIVERSE[1])
        roots = sorted(
            {frozen.root(m) for m in dropped if frozen.class_size(frozen.root(m)) > 1}
        )
        survivors = NaivePartition()
        for block in model.blocks:
            if not block & set(dropped):
                survivors.blocks.append(set(block))
        fork = frozen.fork(drop=roots)
        assert fork.span() == sum(len(b) - 1 for b in survivors.blocks)
        for a in UNIVERSE:
            for b in UNIVERSE:
                assert fork.inherited(a, b) == (
                    a == b or any(a in blk and b in blk for blk in survivors.blocks)
                )
        model = survivors.copy()
        for e1, e2 in merges:
            assert fork.merge(e1, e2) == model.merge(e1, e2)
        assert fork.merge_count == len(fork.log) == model.merges
        assert_partition(fork, model)
        assert_partition(fork.restarted(), survivors)
        assert_partition(pickle.loads(pickle.dumps(fork)), model)
        assert pickle.dumps(frozen) == before  # the base did not move
        eq = fork.freeze()
        if eq.depth > MAX_FORK_DEPTH:
            eq = eq.flattened()
            assert eq.depth <= 1
        assert_partition(eq, model)
        assert_partition(eq.copy(), model)


@pytest.mark.parametrize(
    "dropped, folded", [(1, "FrozenEquivalenceFork"), (12, "FrozenEquivalenceRelation")]
)
def test_a_long_chain_folds_into_one_fork_or_one_relation(dropped, folded):
    """Past the depth bound a chain folds into one fork over its bottom
    while what it changed is small beside the bottom, and into a plain
    relation once that overlay outgrows it; either reads as the chain did."""
    import random

    rng = random.Random(dropped)
    ids = [f"e{i}" for i in range(300)]
    eq, model = EquivalenceRelation(), NaivePartition()
    for i in range(0, 300, 3):  # a hundred classes of three
        for a, b in ((ids[i], ids[i + 1]), (ids[i], ids[i + 2])):
            eq.merge(a, b)
            model.merge(a, b)
    kinds = set()
    for _ in range(3 * MAX_FORK_DEPTH):
        frozen = eq.freeze()
        members = rng.sample(ids, dropped)
        roots = sorted(
            {frozen.root(m) for m in members if frozen.class_size(frozen.root(m)) > 1}
        )
        gone = {m for root in roots for m in frozen.class_members(root)}
        survivors = NaivePartition()
        survivors.blocks = [set(block) for block in model.blocks if not block & gone]
        fork, model = frozen.fork(drop=roots), survivors
        for _ in range(2):
            a, b = rng.sample(ids, 2)
            assert fork.merge(a, b) == model.merge(a, b)
        eq = fork.freeze()
        if eq.depth > MAX_FORK_DEPTH:
            eq = eq.flattened()
            kinds.add(type(eq).__name__)
            assert eq.depth <= 1
        assert eq.pairs() == model.pairs() and eq.pair_count() == len(model.pairs())
    assert kinds == {folded}
