"""``EMMR`` and ``EMVF2MR``: entity matching in (simulated) MapReduce
(Section 4.1, Fig. 4).

The driver builds the candidate set ``L`` and the d-neighbourhoods, caches
them Haloop-style, stores the global ``Eq`` (here a union–find, which
maintains the transitive closure the paper's reducer computes by joins) and
then iterates MapReduce rounds until ``Eq`` stops changing:

* **MapEM** — for each candidate pair, either confirm it from the previous
  round's ``Eq`` or run the per-pair isomorphism check restricted to
  the two d-neighbourhoods, and emit ``(entity, (e1, e2, flag))`` records;
* **ReduceEM** — group by entity, merge newly identified pairs into the
  global ``Eq`` (extending its transitive closure) and re-emit the still
  unidentified pairs for the next round.

``EMVF2MR`` is the same driver with the guided check replaced by full match
enumeration (no early termination); ``EMOptMR`` (see
:mod:`repro.matching.em_mr_opt`) adds the Section 4.2 optimizations.  The
driver is an :class:`~repro.matching.backend.EntityMatcher`: the base holds
the run inputs and the executor, the driver loop is ``_solve``, and each
variant registers its class's ``solve``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Type, Union

from ..api.registry import get_algorithm, register_algorithm
from ..core.equivalence import EquivalenceFork, EquivalenceRelation, Pair, canonical_pair
from ..core.graph import Graph
from ..core.key import Key, KeySet
from ..mapreduce.runtime import MapReduceDriver, TaskContext
from ..storage import GraphSnapshot, SnapshotNeighborhoodIndex
from .backend import EntityMatcher
from .candidates import CandidateSet
from .checkers import EnumerationChecker, GuidedChecker, PairChecker
from .result import EMResult, EMStatistics

class _MapEM:
    """The ``MapEM`` function of Fig. 4 for one round.

    The mapper is a *picklable task payload*: it carries only the small
    per-round state (``Eq`` and the incremental-checking set) and
    reads the heavy invariants — the graph and the d-neighbourhoods — from the
    Haloop-style worker cache, which the executor ships to each worker once
    per run rather than once per task.  Per-worker helpers (the checker) live
    in the task context's scratch space, and statistics flow back through
    ``context.count`` so the mapper object itself stays read-only.  ``Eq`` is
    the driver's live one: every executor gathers all map outcomes before a
    reduce task runs, so during the map phase it is the round-start relation.
    """

    def __init__(
        self,
        keys_by_type: Dict[str, List[Key]],
        eq: EquivalenceRelation,
        checker_class: Type[PairChecker],
        pairs_to_check: Optional[Set[Pair]],
    ) -> None:
        self._keys_by_type = keys_by_type
        self._eq = eq
        self._checker_class = checker_class
        self._pairs_to_check = pairs_to_check

    def _tools(
        self, context: TaskContext
    ) -> Tuple[GraphSnapshot, SnapshotNeighborhoodIndex, PairChecker]:
        tools = context.scratch.get("em_mr_tools")
        if tools is None:
            # the cached "snapshot" is the compiled read view of G: compact
            # arrays shipped once per worker, decoded lazily on first use
            snapshot = context.cached("snapshot")
            neighborhoods = context.cached("neighborhoods")
            tools = (snapshot, neighborhoods, self._checker_class(snapshot))
            context.scratch["em_mr_tools"] = tools
        return tools  # type: ignore[return-value]

    def map(self, key: Hashable, value: object, context: TaskContext) -> None:
        e1, e2 = key  # type: ignore[misc]
        if value:
            context.emit(e1, (e1, e2, True))
            context.emit(e2, (e1, e2, True))
            return
        if self._pairs_to_check is not None and (e1, e2) not in self._pairs_to_check:
            # incremental checking: nothing this pair depends on changed, so the
            # expensive isomorphism check is skipped this round.
            context.emit(e1, (e1, e2, False))
            return
        graph, neighborhoods, checker = self._tools(context)
        keys = self._keys_by_type.get(graph.entity_type(e1), [])
        nbhd1 = neighborhoods.nodes(e1)
        nbhd2 = neighborhoods.nodes(e2)
        identified, work = checker.check(keys, e1, e2, self._eq, nbhd1, nbhd2)
        context.count("checks")
        context.add_work(work)
        if identified:
            context.emit(e1, (e1, e2, True))
            context.emit(e2, (e1, e2, True))
        else:
            context.emit(e1, (e1, e2, False))


class _ReduceEM:
    """The ``ReduceEM`` function of Fig. 4 for one round.

    The global ``Eq`` is a union–find held by the driver; merging into it
    plays the role of the paper's reducer-side transitive-closure joins (the
    join work is still charged to the cost model via ``add_work``).  The
    reducer implements the runtime's replicate/absorb protocol: each reduce
    task runs against an O(1) fork of ``Eq`` and returns the fork's merge log,
    which the driver replays in task order — the same schedule under every
    executor, so parallel runs stay bit-identical with serial ones.
    """

    def __init__(self, eq: Union[EquivalenceRelation, EquivalenceFork]) -> None:
        self._eq = eq
        self.newly_identified: Set[Pair] = set()

    def reduce(self, key: Hashable, values: List[object], context: TaskContext) -> None:
        unidentified: List[Pair] = []
        for record in values:
            e1, e2, flag = record  # type: ignore[misc]
            if flag:
                self._eq.merge(e1, e2)
                context.add_work(1)  # transitive-closure join work
            else:
                unidentified.append(canonical_pair(e1, e2))
        for pair in unidentified:
            if not self._eq.identified(*pair):
                context.emit(pair, False)

    # -- replicate/absorb protocol (see repro.mapreduce.runtime) --------- #

    def replicate(self) -> "_ReduceEM":
        """A fork of ``Eq`` to run one reduce task against."""
        return _ReduceEM(self._eq.fork())

    def collect(self) -> List[Pair]:
        """The picklable state delta of one task: its fork's merge log."""
        return self._eq.log

    def absorb(self, merges: List[Pair]) -> None:
        """Replay a task's merge log into the driver-side ``Eq``."""
        for e1, e2 in merges:
            self._eq.merge(e1, e2)
        self.newly_identified.update(merges)


class MapReduceEntityMatcher(EntityMatcher):
    """Base MapReduce entity matcher (= ``EMMR``)."""

    algorithm_name = "EMMR"

    # -- extension points overridden by EMVF2MR / EMOptMR ---------------- #

    def _candidates(self) -> CandidateSet:
        return self.artifacts.candidates(filtered=False, blocking=self.blocking)

    def _checker_class(self) -> Type[PairChecker]:
        return GuidedChecker

    def _pairs_to_check(
        self,
        round_index: int,
        pending: Sequence[Pair],
        newly_identified: Set[Pair],
        candidates: CandidateSet,
    ) -> Optional[Set[Pair]]:
        """Which pending pairs must run the isomorphism check this round.

        ``None`` means "all of them" — the base algorithm re-checks every
        pending pair every round (the redundant computation that the
        incremental-checking optimization removes).
        """
        return None

    # -- main driver loop ------------------------------------------------ #

    def _solve(self, executor) -> EMResult:
        # the compiled read view shared by the driver and every worker
        snapshot = self.artifacts.snapshot()
        placement = self.artifacts.shuffle_placement(self.processors)
        driver = MapReduceDriver(self.processors, executor=executor, placement=placement)
        candidates = self._candidates()
        checker_class = self._checker_class()
        keys_by_type = {
            etype: self.keys.keys_for_type(etype) for etype in self.keys.target_types()
        }

        # Driver-side preprocessing: candidate pairs + d-neighbourhood BFS,
        # cached on the workers (Haloop-style) so rounds do not re-ship them.
        # What ships is the compiled snapshot and the id-encoded neighbourhood
        # entries — compact arrays, pickled once per worker — instead of the
        # mutable graph's dict-of-dict indexes.  The snapshot is charged at
        # zero records: the graph already lives on HDFS in the paper's
        # setting, the cache entry only makes it reachable from executor
        # worker processes.
        neighborhood_total = candidates.neighborhoods.total_size()
        driver.charge_setup(candidates.unfiltered_size + neighborhood_total)
        driver.cache.put("neighborhoods", candidates.neighborhoods, records=neighborhood_total)
        driver.cache.put("keys", self.keys, records=self.keys.size)
        driver.cache.put("snapshot", snapshot, records=0)

        eq = self._start_eq()
        seed_merges = eq.merge_count

        worklist_pairs = self._activated(candidates)

        stats = EMStatistics(
            candidate_pairs=candidates.unfiltered_size,
            processed_pairs=len(worklist_pairs),
            neighborhood_total=neighborhood_total,
            neighborhood_max=candidates.neighborhoods.max_size(),
        )

        self._notify("candidates", pending=len(worklist_pairs))
        # a pending pair carries whether Eq held it at round start (a seed)
        pending = [(pair, eq.identified(*pair)) for pair in worklist_pairs]
        newly_identified: Set[Pair] = set()
        rounds = 0
        while pending:
            rounds += 1
            to_check = self._pairs_to_check(
                rounds, [pair for pair, _ in pending], newly_identified, candidates
            )
            mapper = _MapEM(keys_by_type, eq, checker_class, to_check)
            reducer = _ReduceEM(eq)
            job = driver.run_job(mapper, reducer, pending)
            identified = eq.pair_count()
            # the round's Eq, rewritten to HDFS (charged; nothing reads it)
            driver.hdfs.stats.records_written += identified
            stats.checks += job.counters.get("checks", 0)
            stats.shuffled_records += job.map_emitted
            newly_identified = reducer.newly_identified
            # pairs that joined Eq purely through transitivity also count as
            # "newly identified" for dependency-based re-checking
            for pair, held in pending:
                if not held and pair not in newly_identified and eq.identified(*pair):
                    newly_identified.add(pair)
            self._notify("round", round=rounds, identified=identified, pending=len(pending))
            if not newly_identified:
                break
            pending = [
                (pair, False)
                for pair, _ in job.output
                if isinstance(pair, tuple) and not eq.identified(*pair)
            ]

        stats.rounds = rounds
        stats.directly_identified = eq.merge_count - seed_merges
        stats.identified_pairs = eq.pair_count()
        stats.work_units = driver.cost_model.total_work

        self._notify("done", round=rounds, identified=stats.identified_pairs)
        return EMResult(
            algorithm=self.algorithm_name,
            processors=self.processors,
            eq=eq,
            simulated_seconds=driver.simulated_seconds(),
            stats=stats,
            cost_breakdown=driver.cost_model.breakdown(),
        )


class VF2MapReduceEntityMatcher(MapReduceEntityMatcher):
    """``EMVF2MR``: the baseline that enumerates all matches per pair."""

    algorithm_name = "EMVF2MR"

    def _checker_class(self) -> Type[PairChecker]:
        return EnumerationChecker


register_algorithm(
    "EMMR",
    family="mapreduce",
    capabilities=(
        "parallel", "rounds", "incremental-eq", "executors", "incremental", "blocking",
    ),
    description="MapReduce algorithm with the guided EvalMR check (Fig. 4)",
)(MapReduceEntityMatcher.solve)

register_algorithm(
    "EMVF2MR",
    family="mapreduce",
    capabilities=("parallel", "rounds", "executors", "incremental", "blocking"),
    description="MapReduce baseline enumerating all matches (no early exit)",
)(VF2MapReduceEntityMatcher.solve)


def em_mr(graph: Graph, keys: KeySet, processors: int = 4) -> EMResult:
    """Run ``EMMR`` on *graph* with *keys* using *processors* simulated workers."""
    return get_algorithm("EMMR").run(graph, keys, processors=processors)


def em_vf2_mr(graph: Graph, keys: KeySet, processors: int = 4) -> EMResult:
    """Run the ``EMVF2MR`` baseline."""
    return get_algorithm("EMVF2MR").run(graph, keys, processors=processors)
