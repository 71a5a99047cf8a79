"""``EMVC`` and ``EMOptVC``: entity matching in the (simulated) vertex-centric
asynchronous model (Section 5).

The driver builds the product graph ``Gp`` from the pairing-filtered candidate
set, reads each key's compiled tour, registers every product-graph node as
a vertex of the asynchronous engine, posts an initial activation to every
candidate pair and lets the engine drain.  The identified pairs are the
equivalence closure of the flags set by the vertex program.

``EMOptVC`` is the same driver with the two optimizations of Section 5.2
enabled: bounded messages (fan-out budget ``k``, default 4) and prioritized
propagation.  Both are :class:`~repro.matching.backend.EntityMatcher`
subclasses: each declares its knobs once in ``options`` and registers its
class's ``solve``.
"""

from __future__ import annotations

from typing import Optional

from ..api.registry import OptionSpec, get_algorithm, register_algorithm
from ..core.equivalence import EquivalenceRelation
from ..core.graph import Graph
from ..core.key import KeySet
from ..runtime import create_partitioner
from ..vertexcentric.engine import VertexCentricEngine
from .backend import EntityMatcher
from .eval_vc import Activate, EvalVCProgram, PairState
from .result import EMResult, EMStatistics

#: Default fan-out budget of EMOptVC (the paper evaluates k = 4).
DEFAULT_FANOUT = 4

#: Safety valve: the engine aborts if a run exceeds this many messages.
MAX_MESSAGES = 5_000_000

#: The partitioning-strategy knob shared by the vertex-centric backends.
PARTITIONER_OPTION = OptionSpec(
    "partitioner",
    str,
    "hash",
    "vertex partitioning strategy for partitioned execution (hash/chunk/fragment)",
)


class VertexCentricEntityMatcher(EntityMatcher):
    """Base vertex-centric entity matcher (= ``EMVC``).

    Without an executor the engine runs the classic single-process drain;
    with one it runs partitioned supersteps over ``partitioner``'s split.
    """

    algorithm_name = "EMVC"
    options = (PARTITIONER_OPTION,)
    #: EMVC's unbounded, unprioritized messages; EMOptVC declares both knobs
    fanout: Optional[int] = None
    prioritize: bool = False

    def _solve(self, executor) -> EMResult:
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
            max_fanout=self.fanout,
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

        activations = self._activated(candidates.pairs)
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
    options = (
        OptionSpec(
            "fanout",
            int,
            DEFAULT_FANOUT,
            "bounded-message fan-out budget k (Section 5.2)",
            minimum=1,
        ),
        OptionSpec("prioritize", bool, True, "prioritized propagation of flag messages"),
        PARTITIONER_OPTION,
    )


register_algorithm(
    "EMVC",
    family="vertex-centric",
    options=VertexCentricEntityMatcher.options,
    capabilities=("parallel", "asynchronous", "executors", "incremental", "blocking"),
    description="vertex-centric asynchronous algorithm over the product graph",
)(VertexCentricEntityMatcher.solve)

register_algorithm(
    "EMOptVC",
    family="vertex-centric",
    options=OptimizedVertexCentricEntityMatcher.options,
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
)(OptimizedVertexCentricEntityMatcher.solve)


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
