"""Proof graphs: verifiable witnesses of ``(G, Σ) |= (e1, e2)`` (Theorem 2).

The NP upper bound of Theorem 2 rests on *proof graphs*: DAGs whose nodes are
identified entity pairs, each annotated with the key that identified it and
edges to the prerequisite pairs its witness relied on.  A proof graph with at
most ``N²`` nodes exists whenever a pair is identified, and checking that a
candidate DAG is a valid proof takes polynomial time.

This module turns chase provenance (:class:`~repro.core.chase.ChaseStep`)
into proof graphs and verifies them independently of the chase: verification
re-checks every step with the guided evaluator against an ``Eq`` consisting
only of previously verified pairs, so a forged or cyclic proof is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import ProofError
from .chase import ChaseResult, ChaseStep
from .equivalence import EquivalenceRelation, Pair, canonical_pair
from .eval_guided import GuidedPairEvaluator
from .graph import Graph
from .key import Key, KeySet


@dataclass(frozen=True)
class ProofNode:
    """One node of a proof graph: *pair* identified by *key_name* given *prerequisites*."""

    pair: Pair
    key_name: str
    prerequisites: Tuple[Pair, ...] = ()


@dataclass
class ProofGraph:
    """A DAG of :class:`ProofNode` indexed by the pair they identify."""

    nodes: Dict[Pair, ProofNode] = field(default_factory=dict)

    def add(self, node: ProofNode) -> None:
        self.nodes[node.pair] = node

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, pair: object) -> bool:
        return pair in self.nodes

    def pairs(self) -> Set[Pair]:
        return set(self.nodes.keys())

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    def topological_order(self) -> List[ProofNode]:
        """Nodes ordered so prerequisites come before dependents.

        Raises :class:`ProofError` when the prerequisite structure is cyclic
        (a cyclic "proof" proves nothing).
        """
        order: List[ProofNode] = []
        state: Dict[Pair, int] = {}  # 0 unvisited, 1 on stack, 2 done

        def visit(pair: Pair) -> None:
            node = self.nodes.get(pair)
            if node is None:
                return  # prerequisite proven elsewhere (e.g. trivially) — checked later
            status = state.get(pair, 0)
            if status == 1:
                raise ProofError(f"proof graph has a cyclic dependency through {pair}")
            if status == 2:
                return
            state[pair] = 1
            for prerequisite in node.prerequisites:
                visit(prerequisite)
            state[pair] = 2
            order.append(node)

        for pair in self.nodes:
            visit(pair)
        return order

    def restricted_to(self, target: Pair) -> "ProofGraph":
        """The sub-proof needed to establish *target* (its prerequisite closure)."""
        target = canonical_pair(*target)
        needed: Set[Pair] = set()
        frontier = [target]
        while frontier:
            pair = frontier.pop()
            if pair in needed:
                continue
            needed.add(pair)
            node = self.nodes.get(pair)
            if node is not None:
                frontier.extend(node.prerequisites)
        sub = ProofGraph()
        for pair in needed:
            if pair in self.nodes:
                sub.add(self.nodes[pair])
        return sub


def proof_from_chase(result: ChaseResult) -> ProofGraph:
    """Build a proof graph from the provenance recorded by the chase.

    Only directly identified pairs get a node; pairs identified purely by
    transitivity are implied by the equivalence closure of the proven pairs.
    """
    proof = ProofGraph()
    for step in result.steps:
        proof.add(
            ProofNode(
                pair=step.pair,
                key_name=step.key_name,
                prerequisites=step.prerequisites,
            )
        )
    return proof


def verify_proof(
    graph: Graph,
    keys: KeySet,
    proof: ProofGraph,
    target: Optional[Pair] = None,
) -> bool:
    """Verify a proof graph in polynomial time.

    Every node is re-checked with the guided evaluator against an ``Eq`` that
    contains only previously verified pairs; prerequisites that have no node
    in the proof must already follow from verified pairs by transitivity.

    Returns True when the proof is valid (and, when *target* is given, when
    the target pair follows from the proof); raises :class:`ProofError` with
    a description of the first offending node otherwise.
    """
    evaluator = GuidedPairEvaluator(graph)
    eq = EquivalenceRelation()
    order = proof.topological_order()
    for node in order:
        for prerequisite in node.prerequisites:
            p1, p2 = prerequisite
            if not eq.identified(p1, p2):
                raise ProofError(
                    f"step for {node.pair} relies on unproven prerequisite {prerequisite}"
                )
        try:
            key = keys.by_name(node.key_name)
        except Exception as exc:
            raise ProofError(
                f"step for {node.pair} references unknown key {node.key_name!r}"
            ) from exc
        e1, e2 = node.pair
        if not evaluator.identify(key, e1, e2, eq):
            raise ProofError(
                f"key {node.key_name!r} does not identify {node.pair} "
                "given the previously verified pairs"
            )
        eq.merge(e1, e2)
    if target is not None:
        t1, t2 = canonical_pair(*target)
        if not eq.identified(t1, t2):
            raise ProofError(f"proof does not establish the target pair {(t1, t2)}")
    return True


def explain(
    graph: Graph, keys: KeySet, result: ChaseResult, e1: str, e2: str
) -> List[ProofNode]:
    """A human-oriented explanation of why ``(e1, e2)`` was identified.

    Returns the topologically ordered sub-proof establishing the pair; an
    empty list when the pair was not identified (or only by transitivity with
    no direct step, in which case the full proof of its class is returned).
    """
    if not result.identified(e1, e2):
        return []
    proof = proof_from_chase(result)
    target = canonical_pair(e1, e2)
    if target in proof:
        return proof.restricted_to(target).topological_order()
    # identified by transitivity: return every step touching the class
    cls = result.eq.class_of(e1)
    relevant = ProofGraph()
    for pair, node in proof.nodes.items():
        if pair[0] in cls or pair[1] in cls:
            for needed in proof.restricted_to(pair).nodes.values():
                relevant.add(needed)
    return relevant.topological_order()
