"""The chase with keys: the sequential reference for ``chase(G, Σ)``
(Section 3.1).

The chase repeatedly applies keys as rules: a chase step
``Eq ⇒(e1,e2) Eq'`` fires when some key's matches at ``e1`` and ``e2``
coincide under the current ``Eq``; the result is the equivalence closure of
``Eq ∪ {(e1, e2)}``.  By Proposition 1 (Church–Rosser) all terminal chasing
sequences yield the same result, so any application order is correct; the
property-based tests exercise this by shuffling the order.

The sequential chase here is the ground truth that every parallel algorithm
of :mod:`repro.matching` is tested against.  It also records *provenance*
(which key identified which pair, relying on which previously identified
pairs), from which :mod:`repro.core.proof_graph` builds verifiable witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import MatchingError
from .equivalence import EquivalenceFork, EquivalenceRelation, Pair, canonical_pair
from .eval_guided import EvalStatistics, GuidedPairEvaluator
from .graph import Graph
from .key import Key, KeySet
from .pattern import NodeKind

if TYPE_CHECKING:
    from ..storage import GraphSnapshot, SnapshotNeighborhoodIndex


def candidate_pairs(graph: Graph, keys: KeySet) -> List[Pair]:
    """The candidate set ``L``: same-type entity pairs with a key defined on them.

    The order is deterministic and independent of graph insertion order:
    target types are visited in sorted order, both graph readers return each
    type's entities sorted, and ``itertools.combinations`` over a sorted
    bucket yields canonically ordered pairs in lexicographic order.  The
    result is *grouped by type* — it is not one globally sorted list.
    """
    pairs: List[Pair] = []
    for etype in sorted(keys.target_types()):
        entities = graph.entities_of_type(etype)
        for e1, e2 in itertools.combinations(entities, 2):
            pairs.append(canonical_pair(e1, e2))
    return pairs


@dataclass(frozen=True)
class ChaseStep:
    """One chase step: *pair* identified by *key_name* relying on *prerequisites*.

    ``prerequisites`` are the pairs instantiated at (recursive) entity
    variables in the witnessing instantiation — exactly the dependencies that
    make entity matching harder than transitive closure (Section 3.3).
    Prerequisite pairs of the form ``(e, e)`` (trivially identified) are
    omitted.
    """

    pair: Pair
    key_name: str
    prerequisites: Tuple[Pair, ...] = ()


@dataclass
class ChaseResult:
    """The result of a chase run.

    ``eq`` is the computed equivalence relation; :meth:`pairs` is
    ``chase(G, Σ)`` as a set of canonically ordered, non-trivial pairs.
    """

    eq: EquivalenceRelation
    steps: List[ChaseStep] = field(default_factory=list)
    rounds: int = 0
    candidates: int = 0
    checks: int = 0
    eval_stats: EvalStatistics = field(default_factory=EvalStatistics)

    def pairs(self) -> Set[Pair]:
        """All identified (non-trivial) pairs, i.e. ``chase(G, Σ)``."""
        return self.eq.pairs()

    def identified(self, e1: str, e2: str) -> bool:
        """``(G, Σ) |= (e1, e2)``."""
        return self.eq.identified(e1, e2)

    def step_for(self, e1: str, e2: str) -> Optional[ChaseStep]:
        """The chase step that directly identified ``(e1, e2)``, if any."""
        target = canonical_pair(e1, e2)
        for step in self.steps:
            if step.pair == target:
                return step
        return None

    def summary(self) -> Dict[str, int]:
        return {
            "identified_pairs": self.eq.pair_count(),
            "direct_steps": len(self.steps),
            "rounds": self.rounds,
            "candidates": self.candidates,
            "checks": self.checks,
        }


def _witness_prerequisites(key: Key, witness: Dict[str, Tuple[object, object]]) -> Tuple[Pair, ...]:
    """Extract the prerequisite pairs from a witnessing instantiation."""
    prerequisites: List[Pair] = []
    for node in key.pattern.nodes():
        if node.kind is not NodeKind.ENTITY_VAR:
            continue
        n1, n2 = witness[node.name]
        if isinstance(n1, str) and isinstance(n2, str) and n1 != n2:
            prerequisites.append(canonical_pair(n1, n2))
    return tuple(sorted(set(prerequisites)))


def chase(
    graph: Graph,
    keys: KeySet,
    pair_order: Optional[Sequence[Pair]] = None,
    key_order: Optional[Sequence[Key]] = None,
    record_provenance: bool = True,
    snapshot: Optional[GraphSnapshot] = None,
    index: Optional[SnapshotNeighborhoodIndex] = None,
    seed: Optional[EquivalenceFork] = None,
    blocking: str = "off",
) -> ChaseResult:
    """Compute ``chase(G, Σ)`` sequentially.

    Every read — candidate enumeration, the d-neighbourhood BFS, the guided
    per-pair checks — runs over a compiled
    :class:`~repro.storage.snapshot.GraphSnapshot` of *graph*, and each check
    is restricted to the d-neighbourhoods of its two entities (the
    data-locality property of Section 4.1).

    Parameters
    ----------
    graph, keys:
        The input graph ``G`` and key set ``Σ``.
    pair_order, key_order:
        Optional explicit orders in which candidate pairs / keys are tried.
        By the Church–Rosser property (Proposition 1) the result is the same
        for every order; the property tests rely on this hook.
    record_provenance:
        When True, each directly identified pair records the key used and the
        prerequisite pairs of its witness (see :class:`ChaseStep`).
    snapshot:
        The snapshot of *graph* to read (e.g. the session cache's); without
        one, a snapshot is built once, here.
    index:
        An optional prebuilt
        :class:`~repro.storage.neighborhoods.SnapshotNeighborhoodIndex` over
        *snapshot* (e.g. the session's cached one) to reuse d-neighbourhood
        BFS results across runs; it is extended in place with any missing
        entities.
    seed:
        Optional relation the chase starts from and merges into — the
        incremental-matching entry point: a fork of a previous run's
        fixpoint holding its surviving identifications, while
        ``pair_order`` restricts the worklist to the pairs a delta could
        have affected.  What the seed holds is neither a chase step nor a
        check.
    blocking:
        Candidate-enumeration strategy when *pair_order* is not given:
        ``"off"`` (default) is the quadratic :func:`candidate_pairs` scan,
        ``"auto"``/``"force"`` use the signature-blocking layer of
        :mod:`repro.matching.blocking`, which is sound (no false negatives)
        and so yields the same chase result.
    """
    eq = EquivalenceRelation() if seed is None else seed
    if len(keys) == 0:
        return ChaseResult(eq=eq, candidates=0)

    # lazy: both packages import repro.core, which imports this module
    from ..matching.blocking import blocked_candidate_pairs
    from ..storage import SnapshotNeighborhoodIndex
    from ..storage.snapshot import snapshot_of

    snapshot = snapshot_of(graph, snapshot)
    evaluator = GuidedPairEvaluator(snapshot)
    neighborhoods = index if index is not None else SnapshotNeighborhoodIndex(snapshot, keys)

    if pair_order is not None:
        candidates = list(pair_order)
    elif blocking != "off":
        candidates, _, _ = blocked_candidate_pairs(
            graph, keys, mode=blocking, snapshot=snapshot
        )
    else:
        candidates = candidate_pairs(snapshot, keys)
    for e1, e2 in candidates:
        if not snapshot.has_entity(e1):
            raise MatchingError(f"candidate pair references unknown entity {e1!r}")
        if not snapshot.has_entity(e2):
            raise MatchingError(f"candidate pair references unknown entity {e2!r}")

    ordered_keys = list(key_order) if key_order is not None else list(keys)
    keys_by_type: Dict[str, List[Key]] = {}
    for key in ordered_keys:
        keys_by_type.setdefault(key.target_type, []).append(key)

    result = ChaseResult(eq=eq, candidates=len(candidates))
    pending: List[Pair] = list(candidates)
    rounds = 0
    while pending:
        rounds += 1
        changed = False
        still_pending: List[Pair] = []
        for e1, e2 in pending:
            if eq.identified(e1, e2):
                continue
            etype = snapshot.entity_type(e1)
            applicable = keys_by_type.get(etype, [])
            identified_by: Optional[Key] = None
            witness = None
            for key in applicable:
                result.checks += 1
                witness = evaluator.identify_with_witness(
                    key, e1, e2, eq, neighborhoods.nodes(e1), neighborhoods.nodes(e2)
                )
                if witness is not None:
                    identified_by = key
                    break
            if identified_by is not None and witness is not None:
                eq.merge(e1, e2)
                changed = True
                if record_provenance:
                    result.steps.append(
                        ChaseStep(
                            pair=canonical_pair(e1, e2),
                            key_name=identified_by.name,
                            prerequisites=_witness_prerequisites(identified_by, witness),
                        )
                    )
            else:
                still_pending.append((e1, e2))
        pending = still_pending if changed else []
    result.rounds = rounds
    result.eval_stats = evaluator.stats
    return result


def entities_identified(
    graph: Graph, keys: KeySet, e1: str, e2: str, **chase_kwargs: object
) -> bool:
    """Decision problem: ``(G, Σ) |= (e1, e2)``.

    Convenience wrapper that runs the chase and queries the result.
    """
    result = chase(graph, keys, **chase_kwargs)  # type: ignore[arg-type]
    return result.identified(e1, e2)
