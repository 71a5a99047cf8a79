"""Per-pair checkers used by the MapReduce algorithms.

``EMMR`` and ``EMOptMR`` use the guided, early-terminating ``EvalMR`` search;
the ``EMVF2MR`` baseline enumerates all matches with a VF2-style enumerator
and tests coincidence afterwards.  Both expose the same interface so the
MapReduce driver is agnostic: ``check(keys, e1, e2, eq, nbhd1, nbhd2)`` returns
``(identified, work_units)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Set, Tuple

from ..core.equivalence import EquivalenceRelation
from ..core.eval_guided import GuidedPairEvaluator
from ..core.graph import Graph
from ..core.key import Key
from ..core.matching import identify_pair_by_enumeration
from ..core.triples import GraphNode


class PairChecker(Protocol):
    """The contract of a per-pair checker."""

    def check(
        self,
        keys: List[Key],
        e1: str,
        e2: str,
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]],
        neighborhood2: Optional[Set[GraphNode]],
    ) -> Tuple[bool, int]:  # pragma: no cover - protocol
        ...


class GuidedChecker:
    """``EvalMR``: guided search with early termination (Section 4.1)."""

    name = "guided"

    def __init__(self, graph: Graph) -> None:
        self._evaluator = GuidedPairEvaluator(graph)

    @property
    def evaluator(self) -> GuidedPairEvaluator:
        return self._evaluator

    def check(
        self,
        keys: List[Key],
        e1: str,
        e2: str,
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]],
        neighborhood2: Optional[Set[GraphNode]],
    ) -> Tuple[bool, int]:
        before = self._evaluator.stats.work
        identified = (
            self._evaluator.identify_with_any(
                keys, e1, e2, eq, neighborhood1, neighborhood2
            )
            is not None
        )
        return identified, max(1, self._evaluator.stats.work - before)


class EnumerationChecker:
    """The ``EMVF2MR`` baseline: enumerate all matches, then test coincidence.

    No early termination and no sharing between the two enumerations — the
    behaviour the paper attributes to plugging VF2 into the mapper directly.
    """

    name = "vf2"

    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    def check(
        self,
        keys: List[Key],
        e1: str,
        e2: str,
        eq: EquivalenceRelation,
        neighborhood1: Optional[Set[GraphNode]],
        neighborhood2: Optional[Set[GraphNode]],
    ) -> Tuple[bool, int]:
        counter: Dict[str, int] = {}
        identified = False
        for key in keys:
            if identify_pair_by_enumeration(
                self._graph,
                key,
                e1,
                e2,
                eq=eq,
                restrict1=neighborhood1,
                restrict2=neighborhood2,
                work_counter=counter,
            ):
                identified = True
                break
        work = (
            counter.get("candidates", 0)
            + counter.get("matches", 0)
            + counter.get("coincidence_checks", 0)
        )
        return identified, max(1, work)
