"""The MapReduce runtime: mappers, reducers, jobs and a driver.

The runtime mirrors the structure of a Hadoop job faithfully enough for the
paper's purposes:

* the input is a list of key/value pairs, split across ``p`` map tasks;
* mappers emit intermediate key/value pairs via their context;
* a shuffle groups the intermediate pairs by key and partitions the keys
  across ``p`` reduce tasks;
* reducers emit output key/value pairs.

Execution is layered on :mod:`repro.runtime`: the ``p`` map and reduce tasks
of a round are dispatched as batches to an
:class:`~repro.runtime.executor.Executor` (serial by default, thread or
process pools for real parallelism).  Task payloads therefore must be
picklable, task objects are treated as read-only (report statistics through
``context.count``, not attribute mutation), and stateful reducers implement
the replicate/absorb protocol below.  The task *schedule* is identical for
every executor, so results are bit-identical whether the batches run inline
or on a process pool.

Every task reports *work units* (one per record by default, more when the
user code calls ``context.add_work``), and each job adds a round to the
:class:`~repro.mapreduce.cost_model.MapReduceCostModel`.  The cost model is a
*parallel-observed* layer: it keeps reporting simulated cluster seconds for
``p`` simulated processors regardless of how many real workers the executor
uses.

**Replicate/absorb protocol.** A reducer that carries mutable cross-task
state (the entity-matching reducer merges into a global union–find) exposes
three methods: ``replicate()`` returns a replica whose writes never reach the
original (an O(1) fork, for the entity matcher) to run one task against,
``collect()`` returns the picklable state delta a task produced, and
``absorb(state)`` merges a delta back into the original, in task order.  The
same protocol runs under every executor; reducers without it fall back to
sequential in-driver execution when a parallel executor is configured (their
shared mutable state cannot be safely distributed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Protocol, Sequence, Tuple

from ..exceptions import MapReduceError
from ..runtime import Executor, HashPartitioner, SerialExecutor, WorkAccount
from .cost_model import MapReduceCostModel, RoundCost
from .haloop_cache import WorkerCache
from .hdfs import InMemoryHDFS

#: A key/value pair flowing through a job.
KeyValue = Tuple[Hashable, object]


class TaskContext(WorkAccount):
    """Execution context handed to map and reduce functions.

    Collects emitted pairs, the work units and the named counters reported by
    the user code.  Work defaults to one unit per processed record;
    computation-heavy code (the isomorphism checks) adds its own work so the
    cost model reflects it.  ``scratch`` holds worker-local helpers so task
    objects shared between tasks stay read-only.
    """

    error_class = MapReduceError

    def __init__(self, worker_id: int, cache: Optional[WorkerCache] = None) -> None:
        super().__init__()
        self.worker_id = worker_id
        self.emitted: List[KeyValue] = []
        self._cache = cache

    def emit(self, key: Hashable, value: object) -> None:
        """Emit an output key/value pair."""
        self.emitted.append((key, value))

    def cached(self, name: str) -> object:
        """Read invariant data cached on this worker (Haloop-style)."""
        if self._cache is None:
            raise MapReduceError("no worker cache attached to this job")
        return self._cache.get(name)


class Mapper(Protocol):
    """A map function: ``map(key, value, context)``."""

    def map(self, key: Hashable, value: object, context: TaskContext) -> None:  # pragma: no cover - protocol
        ...


class Reducer(Protocol):
    """A reduce function: ``reduce(key, values, context)``."""

    def reduce(self, key: Hashable, values: List[object], context: TaskContext) -> None:  # pragma: no cover - protocol
        ...


class FunctionMapper:
    """Adapt a plain function ``f(key, value, context)`` into a Mapper."""

    def __init__(self, fn: Callable[[Hashable, object, TaskContext], None]) -> None:
        self._fn = fn

    def map(self, key: Hashable, value: object, context: TaskContext) -> None:
        self._fn(key, value, context)


class FunctionReducer:
    """Adapt a plain function ``f(key, values, context)`` into a Reducer."""

    def __init__(self, fn: Callable[[Hashable, List[object], TaskContext], None]) -> None:
        self._fn = fn

    def reduce(self, key: Hashable, values: List[object], context: TaskContext) -> None:
        self._fn(key, values, context)


def _is_distributed_reducer(reducer: object) -> bool:
    """Does *reducer* implement the replicate/absorb protocol?"""
    return all(hasattr(reducer, name) for name in ("replicate", "collect", "absorb"))


@dataclass
class TaskOutcome:
    """The picklable result one map or reduce task sends back to the driver."""

    worker_id: int
    emitted: List[KeyValue] = field(default_factory=list)
    work: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    reducer_state: object = None


def _run_map_task(
    shared: Optional[WorkerCache],
    worker_id: int,
    mapper: Mapper,
    split: List[KeyValue],
) -> TaskOutcome:
    """Execute one map task (module-level so process pools can import it)."""
    context = TaskContext(worker_id, shared)
    for key, value in split:
        context.add_work(1)
        mapper.map(key, value, context)
    return TaskOutcome(
        worker_id=worker_id,
        emitted=context.emitted,
        work=context.work,
        counters=context.counters,
    )


def _run_reduce_task(
    shared: Optional[WorkerCache],
    worker_id: int,
    reducer: Reducer,
    split: List[Tuple[Hashable, List[object]]],
) -> TaskOutcome:
    """Execute one reduce task against a reducer replica."""
    context = TaskContext(worker_id, shared)
    for key, values in split:
        context.add_work(len(values))
        reducer.reduce(key, values, context)
    state = reducer.collect() if _is_distributed_reducer(reducer) else None
    return TaskOutcome(
        worker_id=worker_id,
        emitted=context.emitted,
        work=context.work,
        counters=context.counters,
        reducer_state=state,
    )


@dataclass
class JobResult:
    """Output and accounting of one MapReduce job (one round)."""

    output: List[KeyValue]
    round_cost: RoundCost
    map_emitted: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    def grouped(self) -> Dict[Hashable, List[object]]:
        """Output grouped by key (convenience for drivers)."""
        grouped: Dict[Hashable, List[object]] = {}
        for key, value in self.output:
            grouped.setdefault(key, []).append(value)
        return grouped


class ShufflePlacement(dict):
    """Shuffle key → worker: deterministic, process-stable hash partitioning,
    hashed when a key is first placed.

    A memo over :meth:`repro.runtime.HashPartitioner.assign`, so built on
    :func:`repro.runtime.stable_hash`: the builtin ``hash`` is salted per
    process, so two worker processes would disagree on key placement.  When a
    *placement_key* is set (the snapshot's interning of entity ids and
    candidate pairs), the hash runs over interned integer ids instead of the
    key's full repr.  A pair pending for five rounds is placed ten times, and
    its worker depends on the key, the interning and ``p`` alone — so the
    table belongs to whoever holds the interning — the session's artifact
    cache, one per ``p``, dropped with its snapshot — not to the snapshot's
    ``id()``: ids are recycled, and a table outliving its snapshot would
    answer for another graph's interning.
    """

    def __init__(
        self,
        num_workers: int,
        placement_key: Optional[Callable[[Hashable], Hashable]] = None,
    ) -> None:
        super().__init__()
        self._assign = HashPartitioner(num_workers, key_fn=placement_key).assign

    def __missing__(self, key: Hashable) -> int:
        worker = self[key] = self._assign(key)
        return worker


class MapReduceJob:
    """One map + shuffle + reduce execution on the simulated cluster.

    ``num_workers`` is the *simulated* processor count ``p`` (the paper's
    knob): the input is split into ``p`` map tasks and the grouped keys into
    ``p`` reduce tasks.  ``executor`` decides where those task batches
    actually run; real parallelism comes from scheduling the ``p`` tasks onto
    the executor's worker pool.
    """

    def __init__(
        self,
        mapper: Mapper,
        reducer: Reducer,
        num_workers: int,
        cost_model: Optional[MapReduceCostModel] = None,
        cache: Optional[WorkerCache] = None,
        executor: Optional[Executor] = None,
        placement: Optional[ShufflePlacement] = None,
    ) -> None:
        if num_workers < 1:
            raise MapReduceError(f"num_workers must be >= 1, got {num_workers}")
        self._mapper = mapper
        self._reducer = reducer
        self._num_workers = num_workers
        self._cost_model = cost_model
        self._cache = cache
        self._executor = executor if executor is not None else SerialExecutor()
        self._placement = placement if placement is not None else ShufflePlacement(num_workers)

    def run(self, input_pairs: Sequence[KeyValue]) -> JobResult:
        """Execute the job on *input_pairs* and return its result."""
        round_cost = (
            self._cost_model.new_round()
            if self._cost_model is not None
            else RoundCost(round_index=0)
        )
        counters: Dict[str, int] = {}

        # ---- map phase ------------------------------------------------ #
        placement = self._placement
        map_splits: List[List[KeyValue]] = [[] for _ in range(self._num_workers)]
        for key, value in input_pairs:
            map_splits[placement[key]].append((key, value))

        map_batches = [
            (worker_id, self._mapper, split) for worker_id, split in enumerate(map_splits)
        ]
        map_outcomes = self._executor.run_tasks(_run_map_task, map_batches, shared=self._cache)

        intermediate: List[KeyValue] = []
        map_work: List[int] = []
        for outcome in map_outcomes:
            intermediate.extend(outcome.emitted)
            map_work.append(outcome.work)
            _merge_counters(counters, outcome.counters)

        # ---- shuffle --------------------------------------------------- #
        grouped: Dict[Hashable, List[object]] = {}
        for key, value in intermediate:
            grouped.setdefault(key, []).append(value)
        round_cost.shuffled_records += len(intermediate)

        # ---- reduce phase ---------------------------------------------- #
        reduce_splits: List[List[Tuple[Hashable, List[object]]]] = [
            [] for _ in range(self._num_workers)
        ]
        for key in sorted(grouped.keys(), key=repr):
            reduce_splits[placement[key]].append((key, grouped[key]))

        output: List[KeyValue] = []
        reduce_work: List[int] = []
        for outcome in self._run_reduce_phase(reduce_splits):
            output.extend(outcome.emitted)
            reduce_work.append(outcome.work)
            _merge_counters(counters, outcome.counters)

        round_cost.map_work_per_worker = map_work
        round_cost.reduce_work_per_worker = reduce_work
        return JobResult(
            output=output,
            round_cost=round_cost,
            map_emitted=len(intermediate),
            counters=counters,
        )

    def _run_reduce_phase(
        self, reduce_splits: List[List[Tuple[Hashable, List[object]]]]
    ) -> List[TaskOutcome]:
        """Dispatch the reduce tasks, honouring the replicate/absorb protocol."""
        if _is_distributed_reducer(self._reducer):
            batches = [
                (worker_id, self._reducer.replicate(), split)  # type: ignore[attr-defined]
                for worker_id, split in enumerate(reduce_splits)
            ]
            outcomes = self._executor.run_tasks(
                _run_reduce_task, batches, shared=self._cache
            )
            # deltas merge back in task order: deterministic for any executor
            for outcome in outcomes:
                self._reducer.absorb(outcome.reducer_state)  # type: ignore[attr-defined]
            return outcomes
        # Shared-state reducer without the protocol: its mutations cannot be
        # distributed safely, so its tasks always run inline, in order.
        serial = SerialExecutor()
        batches = [
            (worker_id, self._reducer, split)
            for worker_id, split in enumerate(reduce_splits)
        ]
        return serial.run_tasks(_run_reduce_task, batches, shared=self._cache)


def _merge_counters(total: Dict[str, int], delta: Dict[str, int]) -> None:
    for name, value in delta.items():
        total[name] = total.get(name, 0) + value


class MapReduceDriver:
    """A driver owning the cluster-wide pieces: HDFS, worker cache, cost model.

    Iterative algorithms (``EMMR`` and friends) create one driver, then submit
    a job per round via :meth:`run_job`, reading and writing HDFS in between
    exactly like the paper's ``DriverMR``.

    When a process executor is attached, the worker cache is shipped to the
    pool workers once, when the first job runs — populate the cache *before*
    the first :meth:`run_job` call; later ``cache.put`` calls are not
    re-distributed to already-spawned workers.
    """

    def __init__(
        self,
        num_workers: int,
        executor: Optional[Executor] = None,
        placement: Optional[ShufflePlacement] = None,
    ) -> None:
        if num_workers < 1:
            raise MapReduceError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.hdfs = InMemoryHDFS()
        self.cache = WorkerCache(num_workers)
        self.cost_model = MapReduceCostModel(processors=num_workers)
        self.executor = executor
        #: every round's key placement (the MR matchers pass their session's)
        self.placement = placement if placement is not None else ShufflePlacement(num_workers)

    def run_job(self, mapper: Mapper, reducer: Reducer, input_pairs: Sequence[KeyValue]) -> JobResult:
        """Run one MapReduce round with the driver's shared state."""
        job = MapReduceJob(
            mapper,
            reducer,
            self.num_workers,
            cost_model=self.cost_model,
            cache=self.cache,
            executor=self.executor,
            placement=self.placement,
        )
        result = job.run(input_pairs)
        # charge the HDFS traffic performed since the previous round
        result.round_cost.hdfs_records += self._drain_hdfs_traffic()
        return result

    def _drain_hdfs_traffic(self) -> int:
        stats = self.hdfs.stats
        total = stats.records_read + stats.records_written
        stats.reset()
        return total

    def charge_setup(self, work_units: int) -> None:
        """Charge driver-side preprocessing work (candidate set, neighbourhoods)."""
        self.cost_model.add_setup_work(work_units)

    def simulated_seconds(self) -> float:
        """Simulated cluster seconds of everything run through this driver."""
        return self.cost_model.simulated_seconds()
