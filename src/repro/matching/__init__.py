"""Entity matching with keys: the paper's application (Sections 3–5).

The high-level entry points are the :class:`~repro.api.session.MatchSession`
facade and :func:`match_entities`, both of which dispatch through the
algorithm registry (:mod:`repro.api.registry`).  The built-in backends:

=============  ==============================================================
``chase``      sequential reference (Section 3)
``EMMR``       MapReduce algorithm with the guided ``EvalMR`` check (Fig. 4)
``EMVF2MR``    MapReduce baseline enumerating all matches (no early exit)
``EMOptMR``    ``EMMR`` + pairing filter, reduced neighbourhoods, incremental
               checking (Section 4.2)
``EMVC``       vertex-centric asynchronous algorithm over the product graph
``EMOptVC``    ``EMVC`` + bounded messages and prioritized propagation
=============  ==============================================================

Each backend is an :class:`~repro.matching.backend.EntityMatcher` subclass
that registers its class's ``solve`` with
:func:`~repro.api.registry.register_algorithm`; ``ALGORITHMS`` is the live
view of the registered names.  Backend-specific knobs (e.g. ``EMOptVC``'s
``fanout``) are declared once on the class, forwarded as keyword options and
validated per backend.
"""

from __future__ import annotations

from typing import Optional

from ..api.registry import ALGORITHMS, get_algorithm, register_algorithm
from ..core.chase import chase
from ..core.graph import Graph
from ..core.key import KeySet
from ..exceptions import MatchingError
from .backend import EntityMatcher
from .blocking import (
    BLOCKING_MODES,
    BlockingIndex,
    BlockingStats,
    blocked_candidate_pairs,
    compile_blocking_schemes,
)
from .candidates import CandidateSet, build_candidates, build_filtered_candidates, dependency_map
from .em_mr import (
    MapReduceEntityMatcher,
    VF2MapReduceEntityMatcher,
    em_mr,
    em_vf2_mr,
)
from .em_mr_opt import OptimizedMapReduceEntityMatcher, em_mr_opt
from .em_vc import (
    DEFAULT_FANOUT,
    OptimizedVertexCentricEntityMatcher,
    VertexCentricEntityMatcher,
    em_vc,
    em_vc_opt,
)
from .eval_vc import EvalVCProgram, PairState
from .incremental import (
    DeltaPlan,
    DependencyArtifact,
    DependencyWorklist,
    IncrementalState,
    plan_delta,
)
from .product_graph import ProductGraph
from .result import EMResult, EMStatistics


def chase_as_result(
    graph: Graph,
    keys: KeySet,
    snapshot: Optional[object] = None,
    index: Optional[object] = None,
    seed: Optional[object] = None,
    worklist: Optional[object] = None,
) -> EMResult:
    """Run the sequential chase and wrap it in an :class:`EMResult`.

    ``seed`` / ``worklist`` are the incremental re-matching hooks: the chase
    starts from (and merges into) the seed relation, and the worklist (when
    given) replaces the full candidate enumeration as the pending pair list.
    """
    outcome = chase(
        graph,
        keys,
        snapshot=snapshot,
        index=index,
        seed=seed,
        pair_order=worklist,
    )
    stats = EMStatistics(
        candidate_pairs=outcome.candidates,
        processed_pairs=outcome.candidates,
        directly_identified=len(outcome.steps),
        identified_pairs=outcome.eq.pair_count(),
        rounds=outcome.rounds,
        checks=outcome.checks,
        work_units=outcome.eval_stats.work,
    )
    return EMResult(
        algorithm="chase",
        processors=1,
        eq=outcome.eq,
        simulated_seconds=0.0,
        stats=stats,
    )


class ChaseMatcher(EntityMatcher):
    """The sequential chase as a backend: the reference the others reproduce."""

    algorithm_name = "chase"

    def _solve(self, executor) -> EMResult:
        worklist = self.worklist
        if worklist is None and self.blocking != "off":
            # the cache's enumeration of this graph version, in the order the
            # chase itself would enumerate: same candidates, same checks, and
            # one collision pass per graph version, not per run
            worklist, _ = self.artifacts.blocked_pairs(self.blocking)
        result = chase_as_result(
            self.graph,
            self.keys,
            snapshot=self.artifacts.snapshot(),
            index=self.artifacts.neighborhood_index(),
            seed=self.seed,
            worklist=worklist,
        )
        # the sequential chase has no rounds to report, but it honours the
        # events contract every backend shares: a final "done" notification
        self._notify("done", identified=result.stats.identified_pairs, pending=0)
        return result


register_algorithm(
    "chase",
    family="sequential",
    capabilities=("reference", "incremental", "blocking"),
    description="sequential chase, the reference implementation (Section 3)",
)(ChaseMatcher.solve)


def match_entities(
    graph: Graph,
    keys: KeySet,
    algorithm: str = "EMOptVC",
    processors: int = 4,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    blocking: str = "auto",
    **options: object,
) -> EMResult:
    """Compute ``chase(G, Σ)`` with the requested algorithm.

    A thin compatibility wrapper over the algorithm registry: the name is
    resolved case-insensitively and any extra keyword arguments are forwarded
    to the backend as options (validated against its
    :class:`~repro.api.registry.AlgorithmSpec`).  ``executor`` / ``workers``
    select the real execution runtime (``"serial"`` / ``"thread"`` /
    ``"process"``) for backends that support it; ``blocking`` defaults to
    ``"auto"`` like :class:`~repro.api.config.MatchConfig` (same ``Eq`` as
    ``"off"``, without enumerating the full same-type pair list).  Raises
    :class:`~repro.exceptions.MatchingError` for unknown algorithm names and
    :class:`~repro.exceptions.ConfigError` for options the backend does not
    accept.  For repeated runs on the same graph, prefer
    :class:`repro.MatchSession`, which caches the shared indexes.
    """
    spec = get_algorithm(algorithm)
    return spec.run(
        graph,
        keys,
        processors=processors,
        options=options,
        executor=executor,
        workers=workers,
        blocking=blocking,
    )


__all__ = [
    "ALGORITHMS",
    "BLOCKING_MODES",
    "BlockingIndex",
    "BlockingStats",
    "CandidateSet",
    "ChaseMatcher",
    "DEFAULT_FANOUT",
    "DeltaPlan",
    "DependencyArtifact",
    "DependencyWorklist",
    "EMResult",
    "EMStatistics",
    "EntityMatcher",
    "EvalVCProgram",
    "IncrementalState",
    "MapReduceEntityMatcher",
    "OptimizedMapReduceEntityMatcher",
    "OptimizedVertexCentricEntityMatcher",
    "PairState",
    "ProductGraph",
    "VF2MapReduceEntityMatcher",
    "VertexCentricEntityMatcher",
    "blocked_candidate_pairs",
    "build_candidates",
    "build_filtered_candidates",
    "chase_as_result",
    "compile_blocking_schemes",
    "dependency_map",
    "em_mr",
    "em_mr_opt",
    "em_vc",
    "em_vc_opt",
    "em_vf2_mr",
    "match_entities",
    "plan_delta",
]
