"""``EMOptMR``: the MapReduce algorithm with the Section 4.2 optimizations.

Three optimizations on top of :class:`~repro.matching.em_mr.MapReduceEntityMatcher`:

1. **Reducing L** — candidate pairs that cannot be *paired* by any key
   (Proposition 9) are dropped before any isomorphism check.
2. **Reducing (G^d_1, G^d_2)** — the d-neighbourhoods of surviving pairs are
   shrunk to the nodes appearing in the maximum pairing relations (can be
   switched off with the ``reduce_neighborhoods`` option, e.g. for ablations).
3. **Entity dependency + incremental checking** — after the first round, a
   pending pair re-runs its (expensive) isomorphism check only when a pair it
   depends on was newly identified in the previous round; otherwise the mapper
   forwards it unchanged.  This removes the redundant per-round re-checking of
   the base algorithm while preserving the fixpoint.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Set

from ..api.events import ProgressEvent
from ..api.registry import OptionSpec, get_algorithm, register_algorithm
from ..core.equivalence import Pair
from ..core.graph import Graph
from ..core.key import KeySet
from .artifacts import SessionArtifacts
from .candidates import CandidateSet
from .em_mr import MapReduceEntityMatcher
from .incremental import DependencyWorklist
from .result import EMResult


class OptimizedMapReduceEntityMatcher(MapReduceEntityMatcher):
    """``EMOptMR`` = ``EMMR`` + pairing filter + reduced neighbourhoods +
    dependency-driven incremental checking."""

    algorithm_name = "EMOptMR"

    def __init__(
        self,
        graph: Graph,
        keys: KeySet,
        processors: int = 4,
        *,
        reduce_neighborhoods: bool = True,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        artifacts: Optional[SessionArtifacts] = None,
        observer: Optional[Callable[[ProgressEvent], None]] = None,
        seed_pairs: Optional[Sequence[Pair]] = None,
        worklist: Optional[Sequence[Pair]] = None,
        blocking: str = "off",
    ) -> None:
        super().__init__(
            graph,
            keys,
            processors,
            executor=executor,
            workers=workers,
            artifacts=artifacts,
            observer=observer,
            seed_pairs=seed_pairs,
            worklist=worklist,
            blocking=blocking,
        )
        self.reduce_neighborhoods = reduce_neighborhoods
        self._dependents: Optional[DependencyWorklist] = None

    def _candidates(self) -> CandidateSet:
        flavour = dict(
            filtered=True,
            reduce_neighborhoods=self.reduce_neighborhoods,
            blocking=self.blocking,
        )
        candidates = self.artifacts.candidates(**flavour)
        self._dependents = DependencyWorklist(self.artifacts.dependency_map(**flavour))
        return candidates

    def _pairs_to_check(
        self,
        round_index: int,
        pending: Sequence[Pair],
        newly_identified: Set[Pair],
        candidates: CandidateSet,
    ) -> Optional[Set[Pair]]:
        if round_index <= 1:
            return None  # first round: every surviving candidate is checked once
        if not newly_identified or self._dependents is None:
            return set()  # nothing changed: no pair can newly succeed
        return self._dependents.affected_by(newly_identified)


@register_algorithm(
    "EMOptMR",
    family="mapreduce",
    options=(
        OptionSpec(
            "reduce_neighborhoods",
            bool,
            True,
            "shrink d-neighbourhoods to pairing-supported nodes (Section 4.2)",
        ),
    ),
    capabilities=(
        "parallel",
        "rounds",
        "pairing-filter",
        "incremental-check",
        "executors",
        "incremental",
        "blocking",
    ),
    description="EMMR + pairing filter, reduced neighbourhoods, incremental checking",
)
def _run_em_mr_opt(
    graph: Graph,
    keys: KeySet,
    *,
    processors: int = 4,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    artifacts: Optional[SessionArtifacts] = None,
    observer: Optional[Callable[[ProgressEvent], None]] = None,
    reduce_neighborhoods: bool = True,
    seed_pairs: Optional[Sequence[Pair]] = None,
    worklist: Optional[Sequence[Pair]] = None,
    blocking: str = "off",
) -> EMResult:
    return OptimizedMapReduceEntityMatcher(
        graph,
        keys,
        processors,
        reduce_neighborhoods=reduce_neighborhoods,
        executor=executor,
        workers=workers,
        artifacts=artifacts,
        observer=observer,
        seed_pairs=seed_pairs,
        worklist=worklist,
        blocking=blocking,
    ).run()


def em_mr_opt(graph: Graph, keys: KeySet, processors: int = 4) -> EMResult:
    """Run ``EMOptMR`` on *graph* with *keys* using *processors* simulated workers."""
    return get_algorithm("EMOptMR").run(graph, keys, processors=processors)
