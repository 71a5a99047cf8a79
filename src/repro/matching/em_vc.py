"""``EMVC`` and ``EMOptVC``: entity matching in the (simulated) vertex-centric
asynchronous model (Section 5).

The driver builds the product graph ``Gp`` from the pairing-filtered candidate
set, reads each key's compiled tour, registers every product-graph node as
a vertex of the asynchronous engine, posts an initial activation to every
candidate pair and lets the engine drain.  The identified pairs are the
equivalence closure of the flags set by the vertex program.

``EMOptVC`` is the same driver with the two optimizations of Section 5.2
enabled: bounded messages (fan-out budget ``k``, default 4) and prioritized
propagation.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from ..api.events import ProgressEvent, notify
from ..api.registry import OptionSpec, get_algorithm, register_algorithm
from ..core.equivalence import EquivalenceRelation, Pair
from ..core.graph import Graph
from ..core.key import KeySet
from ..runtime import create_executor, create_partitioner
from ..vertexcentric.engine import VertexCentricEngine
from .artifacts import SessionArtifacts
from .eval_vc import Activate, EvalVCProgram, PairState
from .result import EMResult, EMStatistics

#: Default fan-out budget of EMOptVC (the paper evaluates k = 4).
DEFAULT_FANOUT = 4

#: Safety valve: the engine aborts if a run exceeds this many messages.
MAX_MESSAGES = 5_000_000


class VertexCentricEntityMatcher:
    """Base vertex-centric entity matcher (= ``EMVC``)."""

    algorithm_name = "EMVC"
    max_fanout: Optional[int] = None
    prioritize: bool = False

    def __init__(
        self,
        graph: Graph,
        keys: KeySet,
        processors: int = 4,
        *,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        partitioner: str = "hash",
        artifacts: Optional[SessionArtifacts] = None,
        observer: Optional[Callable[[ProgressEvent], None]] = None,
        seed_pairs: Optional[Sequence[Pair]] = None,
        worklist: Optional[Sequence[Pair]] = None,
        blocking: str = "off",
    ) -> None:
        self.graph = graph
        self.keys = keys
        self.processors = processors
        #: executor kind ("serial" / "thread" / "process") or None for the
        #: classic single-process drain
        self.executor = executor
        #: real worker count of the executor pool (None: processors, capped)
        self.workers = workers
        #: vertex partitioning strategy for partitioned execution
        self.partitioner = partitioner
        #: the artifact cache every input is read through: the session's, or
        #: a throwaway one when the caller passed none
        self.artifacts = SessionArtifacts(graph, keys) if artifacts is None else artifacts
        self.observer = observer
        #: incremental re-matching: merges seeding ``live_eq`` (and flagging
        #: the corresponding product-graph vertices) before the engine drains
        self.seed_pairs = seed_pairs
        #: ... and the candidate pairs that receive an initial activation
        #: (None: every candidate pair)
        self.worklist = worklist
        #: candidate enumeration strategy ("off" / "auto" / "force")
        self.blocking = blocking

    def _notify(self, stage: str, **fields: object) -> None:
        notify(self.observer, ProgressEvent(algorithm=self.algorithm_name, stage=stage, **fields))

    def run(self) -> EMResult:
        """Execute the algorithm and return its result."""
        started = time.perf_counter()
        executor = None
        if self.executor is not None:
            executor = create_executor(
                self.executor, self.workers, processors=self.processors
            )
        try:
            result = self._run_with_executor(executor)
        finally:
            if executor is not None:
                executor.close()
        result.wall_seconds = time.perf_counter() - started
        return result

    def _run_with_executor(self, executor) -> EMResult:
        # the compiled read view shared by the driver and every replica
        snapshot = self.artifacts.snapshot()
        # the product graph only contains pairs that can be paired (Prop. 9);
        # neighbourhoods stay unreduced because the dependency map is built
        # from them and must over-approximate, never under-approximate.
        flavour = dict(filtered=True, reduce_neighborhoods=False, blocking=self.blocking)
        candidates = self.artifacts.candidates(**flavour)
        self._notify("candidates", pending=candidates.size)
        product_graph = self.artifacts.product_graph(**flavour)
        self._notify("product-graph", pending=product_graph.num_nodes)
        # the vertex program reads G through the snapshot, so partitioned
        # supersteps ship compact arrays (not graph dicts) to each replica;
        # each key's tour P_Q is the one its pattern compiled
        program = EvalVCProgram(
            snapshot,
            self.keys,
            product_graph,
            max_fanout=self.max_fanout,
            prioritize=self.prioritize,
            seed_pairs=self.seed_pairs,
        )
        partitioner = (
            create_partitioner(
                self.partitioner, executor.workers, key_fn=snapshot.placement_key
            )
            if executor is not None
            else None
        )
        engine = VertexCentricEngine(
            program,
            self.processors,
            max_messages=MAX_MESSAGES,
            executor=executor,
            partitioner=partitioner,
            placement=product_graph.placement(self.processors),
        )
        engine.cost_model.add_setup_work(product_graph.construction_work)

        # identity pairs and equal-value pairs are trivially identified
        for node in product_graph.nodes():
            engine.add_vertex(node, PairState(flag=node[0] == node[1]))
        # every candidate pair is a node of Gp; seeded ones (incremental
        # re-matching) start flagged
        identified = program.live_eq.identified
        for pair in candidates.pairs:
            state = engine.vertex_state(pair)
            state.is_candidate = True
            state.flag = state.flag or identified(*pair)

        if self.worklist is None:
            activations = list(candidates.pairs)
        else:
            members = set(self.worklist)
            activations = [pair for pair in candidates.pairs if pair in members]
        for pair in activations:
            engine.post(pair, Activate(prerequisite=None))
        self._notify("engine", pending=len(activations))
        engine.run()

        eq = EquivalenceRelation()
        for anchor, *others in program.live_eq.nontrivial_classes():
            for other in others:
                eq.merge(anchor, other)

        stats = EMStatistics(
            candidate_pairs=candidates.unfiltered_size,
            processed_pairs=len(activations),
            directly_identified=program.counters.confirmations,
            identified_pairs=eq.pair_count(),
            checks=program.counters.eval_messages,
            messages_sent=engine.stats.messages_sent,
            messages_processed=engine.stats.messages_processed,
            work_units=engine.cost_model.total_work,
            product_graph_nodes=product_graph.num_nodes,
            product_graph_edges=product_graph.count_edges(),
            neighborhood_total=candidates.neighborhoods.total_size(),
            neighborhood_max=candidates.neighborhoods.max_size(),
        )
        breakdown = engine.cost_model.breakdown()
        breakdown.update(
            {
                "early_cancelled": float(program.counters.early_cancelled),
                "deferred_forks": float(program.counters.deferred_forks),
                "dep_notifications": float(program.counters.dep_notifications),
                "tc_flags": float(program.counters.tc_flags),
            }
        )
        self._notify("done", identified=stats.identified_pairs, pending=stats.messages_processed)
        return EMResult(
            algorithm=self.algorithm_name,
            processors=self.processors,
            eq=eq,
            simulated_seconds=engine.simulated_seconds(),
            stats=stats,
            cost_breakdown=breakdown,
        )


class OptimizedVertexCentricEntityMatcher(VertexCentricEntityMatcher):
    """``EMOptVC`` = ``EMVC`` + bounded messages + prioritized propagation."""

    algorithm_name = "EMOptVC"

    def __init__(
        self,
        graph: Graph,
        keys: KeySet,
        processors: int = 4,
        fanout: int = DEFAULT_FANOUT,
        *,
        prioritize: bool = True,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        partitioner: str = "hash",
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
            partitioner=partitioner,
            artifacts=artifacts,
            observer=observer,
            seed_pairs=seed_pairs,
            worklist=worklist,
            blocking=blocking,
        )
        self.max_fanout = fanout
        self.prioritize = prioritize


#: The partitioning-strategy knob shared by the vertex-centric backends.
PARTITIONER_OPTION = OptionSpec(
    "partitioner",
    str,
    "hash",
    "vertex partitioning strategy for partitioned execution (hash/chunk/fragment)",
)


@register_algorithm(
    "EMVC",
    family="vertex-centric",
    options=(PARTITIONER_OPTION,),
    capabilities=("parallel", "asynchronous", "executors", "incremental", "blocking"),
    description="vertex-centric asynchronous algorithm over the product graph",
)
def _run_em_vc(
    graph: Graph,
    keys: KeySet,
    *,
    processors: int = 4,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    artifacts: Optional[SessionArtifacts] = None,
    observer: Optional[Callable[[ProgressEvent], None]] = None,
    partitioner: str = "hash",
    seed_pairs: Optional[Sequence[Pair]] = None,
    worklist: Optional[Sequence[Pair]] = None,
    blocking: str = "off",
) -> EMResult:
    return VertexCentricEntityMatcher(
        graph,
        keys,
        processors,
        executor=executor,
        workers=workers,
        partitioner=partitioner,
        artifacts=artifacts,
        observer=observer,
        seed_pairs=seed_pairs,
        worklist=worklist,
        blocking=blocking,
    ).run()


@register_algorithm(
    "EMOptVC",
    family="vertex-centric",
    options=(
        OptionSpec("fanout", int, DEFAULT_FANOUT, "bounded-message fan-out budget k (Section 5.2)"),
        OptionSpec("prioritize", bool, True, "prioritized propagation of flag messages"),
        PARTITIONER_OPTION,
    ),
    capabilities=(
        "parallel",
        "asynchronous",
        "bounded-messages",
        "prioritized",
        "executors",
        "incremental",
        "blocking",
    ),
    description="EMVC + bounded messages and prioritized propagation",
)
def _run_em_vc_opt(
    graph: Graph,
    keys: KeySet,
    *,
    processors: int = 4,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    artifacts: Optional[SessionArtifacts] = None,
    observer: Optional[Callable[[ProgressEvent], None]] = None,
    fanout: int = DEFAULT_FANOUT,
    prioritize: bool = True,
    partitioner: str = "hash",
    seed_pairs: Optional[Sequence[Pair]] = None,
    worklist: Optional[Sequence[Pair]] = None,
    blocking: str = "off",
) -> EMResult:
    return OptimizedVertexCentricEntityMatcher(
        graph,
        keys,
        processors,
        fanout=fanout,
        prioritize=prioritize,
        executor=executor,
        workers=workers,
        partitioner=partitioner,
        artifacts=artifacts,
        observer=observer,
        seed_pairs=seed_pairs,
        worklist=worklist,
        blocking=blocking,
    ).run()


def em_vc(graph: Graph, keys: KeySet, processors: int = 4) -> EMResult:
    """Run ``EMVC`` on *graph* with *keys* using *processors* simulated workers."""
    return get_algorithm("EMVC").run(graph, keys, processors=processors)


def em_vc_opt(
    graph: Graph, keys: KeySet, processors: int = 4, fanout: int = DEFAULT_FANOUT
) -> EMResult:
    """Run ``EMOptVC`` (bounded messages with budget *fanout*, prioritized propagation)."""
    return get_algorithm("EMOptVC").run(
        graph, keys, processors=processors, options={"fanout": fanout}
    )
