"""Core data model and reference semantics for keys for graphs.

This subpackage contains everything that does not depend on a particular
execution substrate: the graph and pattern model, keys, the declarative
matching semantics, the guided per-pair check, the pairing relation, the
sequential chase, proof graphs and the textual DSL.
"""

from .chase import ChaseResult, ChaseStep, candidate_pairs, chase, entities_identified
from .equivalence import EquivalenceRelation, canonical_pair
from .eval_guided import EvalStatistics, GuidedPairEvaluator
from .graph import Graph, merge_graphs
from .key import Key, KeySet
from .matching import (
    coincides,
    find_matches,
    has_match,
    identify_pair_by_enumeration,
    match_triples,
    satisfies,
    violations,
)
from .pairing import (
    can_pair,
    can_pair_with_any,
    pairing_relation,
    pairing_support_nodes,
    reduced_neighborhoods,
)
from .parser import (
    load_graph,
    load_keys,
    parse_graph,
    parse_keys,
    save_graph,
    save_keys,
    serialize_graph,
    serialize_keys,
)
from .pattern import (
    GraphPattern,
    NodeKind,
    PatternNode,
    PatternTriple,
    constant,
    designated,
    entity_var,
    value_var,
    wildcard,
)
from .proof_graph import ProofGraph, ProofNode, explain, proof_from_chase, verify_proof
from .triples import Entity, Literal, Triple

__all__ = [
    "ChaseResult",
    "ChaseStep",
    "Entity",
    "EquivalenceRelation",
    "EvalStatistics",
    "Graph",
    "GraphPattern",
    "GuidedPairEvaluator",
    "Key",
    "KeySet",
    "Literal",
    "NodeKind",
    "PatternNode",
    "PatternTriple",
    "ProofGraph",
    "ProofNode",
    "Triple",
    "can_pair",
    "can_pair_with_any",
    "candidate_pairs",
    "canonical_pair",
    "chase",
    "coincides",
    "constant",
    "designated",
    "entities_identified",
    "entity_var",
    "explain",
    "find_matches",
    "has_match",
    "identify_pair_by_enumeration",
    "load_graph",
    "load_keys",
    "match_triples",
    "merge_graphs",
    "pairing_relation",
    "pairing_support_nodes",
    "parse_graph",
    "parse_keys",
    "proof_from_chase",
    "reduced_neighborhoods",
    "satisfies",
    "save_graph",
    "save_keys",
    "serialize_graph",
    "serialize_keys",
    "value_var",
    "verify_proof",
    "violations",
    "wildcard",
]
