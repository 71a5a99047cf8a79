"""repro — Keys for Graphs.

A from-scratch Python reproduction of *Keys for Graphs* (Fan, Fan, Tian &
Dong, PVLDB 8(12), 2015): recursive graph-pattern keys, the entity-matching
chase, and the paper's two families of parallel-scalable algorithms (a
MapReduce family and a vertex-centric asynchronous family), both running on
simulated execution substrates with deterministic cost models.

Quickstart — a :class:`MatchSession` is the configurable entry point to every
matching backend and caches the shared indexes across runs::

    from repro import Graph, MatchSession, parse_keys

    graph = Graph()
    graph.add_entity("alb1", "album")
    graph.add_entity("alb2", "album")
    graph.add_value("alb1", "name_of", "Anthology 2")
    graph.add_value("alb2", "name_of", "Anthology 2")
    graph.add_value("alb1", "release_year", "1996")
    graph.add_value("alb2", "release_year", "1996")

    keys = parse_keys('''
    key album_by_name_and_year for album:
      x -[name_of]-> name*
      x -[release_year]-> year*
    ''')

    session = MatchSession(graph).with_keys(keys)
    result = session.using("EMOptVC", processors=8, fanout=4).run()
    assert result.identified("alb1", "alb2")

    # a second run on the same session reuses the neighbourhood index,
    # candidate sets and product graph instead of rebuilding them:
    assert session.run("EMMR").pairs() == result.pairs()

The one-shot form ``match_entities(graph, keys, algorithm="EMOptVC")`` is kept
as a thin wrapper over the same algorithm registry; ``ALGORITHMS`` is a live
view of the registered backend names, and new backends can be plugged in with
:func:`register_algorithm`.  See DESIGN.md for the system layering.
"""

from .api import (
    ALGORITHMS,
    AlgorithmSpec,
    MatchConfig,
    MatchSession,
    OptionSpec,
    ProgressEvent,
    Session,
    algorithm_specs,
    get_algorithm,
    register_algorithm,
)
from .core import (
    ChaseResult,
    ChaseStep,
    Entity,
    EquivalenceRelation,
    Graph,
    GraphPattern,
    GuidedPairEvaluator,
    Key,
    KeySet,
    Literal,
    NodeKind,
    PatternNode,
    PatternTriple,
    ProofGraph,
    Triple,
    chase,
    constant,
    designated,
    entities_identified,
    entity_var,
    explain,
    find_matches,
    has_match,
    load_graph,
    load_keys,
    parse_graph,
    parse_keys,
    proof_from_chase,
    satisfies,
    save_graph,
    save_keys,
    serialize_graph,
    serialize_keys,
    value_var,
    verify_proof,
    violations,
    wildcard,
)
from .exceptions import (
    ConfigError,
    DatasetError,
    GraphError,
    InvalidKeyError,
    MatchingError,
    ParseError,
    ProofError,
    ReproError,
    StoreError,
    UnknownEntityError,
)
from .matching import (
    EMResult,
    EMStatistics,
    em_mr,
    em_mr_opt,
    em_vc,
    em_vc_opt,
    em_vf2_mr,
    match_entities,
)
from .storage import (
    GraphSnapshot,
    SnapshotNeighborhoodIndex,
    SnapshotStore,
    graph_fingerprint,
)

__version__ = "1.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "ChaseResult",
    "ChaseStep",
    "ConfigError",
    "DatasetError",
    "EMResult",
    "EMStatistics",
    "Entity",
    "EquivalenceRelation",
    "Graph",
    "GraphError",
    "GraphPattern",
    "GraphSnapshot",
    "GuidedPairEvaluator",
    "InvalidKeyError",
    "Key",
    "KeySet",
    "Literal",
    "MatchConfig",
    "MatchSession",
    "MatchingError",
    "NodeKind",
    "OptionSpec",
    "ParseError",
    "PatternNode",
    "PatternTriple",
    "ProgressEvent",
    "ProofError",
    "ProofGraph",
    "ReproError",
    "Session",
    "SnapshotNeighborhoodIndex",
    "SnapshotStore",
    "StoreError",
    "Triple",
    "UnknownEntityError",
    "__version__",
    "algorithm_specs",
    "chase",
    "constant",
    "designated",
    "em_mr",
    "em_mr_opt",
    "em_vc",
    "em_vc_opt",
    "em_vf2_mr",
    "entities_identified",
    "entity_var",
    "explain",
    "find_matches",
    "get_algorithm",
    "graph_fingerprint",
    "has_match",
    "load_graph",
    "load_keys",
    "match_entities",
    "parse_graph",
    "parse_keys",
    "proof_from_chase",
    "register_algorithm",
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
