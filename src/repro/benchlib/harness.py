"""Experiment harness: the parameter sweeps behind Figure 8 and Table 2.

Every experiment of Section 6 is a sweep of one knob (processors ``p``, graph
scale ``|G|``, chain length ``c`` or radius ``d``) over a fixed dataset and a
fixed set of algorithms, reporting simulated cluster seconds per algorithm.
The harness expresses each sweep as data (an :class:`ExperimentSpec`), runs
it, and returns an :class:`ExperimentResult` whose series can be printed next
to the corresponding sub-figure of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api.session import MatchSession
from ..core.graph import Graph
from ..core.key import KeySet
from ..matching.result import EMResult

#: The algorithms of Fig. 8, in the paper's legend order.
FIGURE8_ALGORITHMS = ("EMVF2MR", "EMMR", "EMOptMR", "EMVC", "EMOptVC")

#: A dataset factory returns (graph, keys) for a given sweep point.
DatasetFactory = Callable[..., Tuple[Graph, KeySet]]


@dataclass(frozen=True)
class ExperimentSpec:
    """One sub-figure: a dataset, a knob to vary, and the algorithms to run."""

    experiment_id: str
    dataset_name: str
    parameter: str                      # "p", "scale", "c" or "d"
    values: Tuple[object, ...]
    dataset_factory: DatasetFactory
    algorithms: Tuple[str, ...] = FIGURE8_ALGORITHMS
    fixed: Dict[str, object] = field(default_factory=dict)
    #: per-algorithm backend options, e.g. {"EMOptVC": {"fanout": 8}}.
    algorithm_options: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: real execution runtime for every run of the sweep (None: classic path).
    executor: Optional[str] = None
    workers: Optional[int] = None

    def describe(self) -> str:
        fixed = ", ".join(f"{k}={v}" for k, v in sorted(self.fixed.items()))
        runtime = ""
        if self.executor is not None:
            workers = self.workers if self.workers is not None else "auto"
            runtime = f" [executor={self.executor}, workers={workers}]"
        return (
            f"{self.experiment_id}: {self.dataset_name}, varying {self.parameter} "
            f"over {list(self.values)}"
            + (f" ({fixed})" if fixed else "")
            + runtime
        )


@dataclass
class SweepPoint:
    """The results of all algorithms at one sweep value."""

    value: object
    results: Dict[str, EMResult] = field(default_factory=dict)

    def seconds(self, algorithm: str) -> float:
        return self.results[algorithm].simulated_seconds

    def wall_seconds(self, algorithm: str) -> float:
        """Measured wall-clock seconds of one algorithm at this point."""
        return self.results[algorithm].wall_seconds


@dataclass
class ExperimentResult:
    """The full series of one experiment."""

    spec: ExperimentSpec
    points: List[SweepPoint] = field(default_factory=list)

    def series(self, algorithm: str) -> List[Tuple[object, float]]:
        """(value, simulated seconds) pairs for one algorithm."""
        return [(point.value, point.seconds(algorithm)) for point in self.points]

    def wall_series(self, algorithm: str) -> List[Tuple[object, float]]:
        """(value, measured wall-clock seconds) pairs for one algorithm."""
        return [(point.value, point.wall_seconds(algorithm)) for point in self.points]

    def measured_speedup(self, algorithm: str) -> float:
        """Last-over-first wall-clock ratio of the series (measured, not simulated)."""
        series = self.wall_series(algorithm)
        if len(series) < 2 or series[-1][1] == 0:
            return 1.0
        return series[0][1] / series[-1][1]

    def speedup(self, algorithm: str) -> float:
        """Last-over-first ratio of the series (e.g. the p=4 → p=20 speedup)."""
        series = self.series(algorithm)
        if len(series) < 2 or series[-1][1] == 0:
            return 1.0
        return series[0][1] / series[-1][1]

    def consistent_pairs(self) -> bool:
        """All algorithms found the same identified pairs at every point."""
        for point in self.points:
            expected = None
            for result in point.results.values():
                pairs = result.pairs()
                if expected is None:
                    expected = pairs
                elif pairs != expected:
                    return False
        return True


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run a sweep: one dataset instantiation and one matching run per point.

    All algorithms at one sweep point share a :class:`MatchSession`, so the
    candidate set, d-neighbourhood index and product graph are built once per
    point instead of once per algorithm.
    """
    outcome = ExperimentResult(spec=spec)
    for value in spec.values:
        parameters = dict(spec.fixed)
        parameters[spec.parameter] = value
        processors = int(parameters.pop("p", 4))
        graph, keys = spec.dataset_factory(**parameters)
        session = MatchSession(graph).with_keys(keys)
        point = SweepPoint(value=value)
        for algorithm in spec.algorithms:
            options = dict(spec.algorithm_options.get(algorithm, {}))
            # a per-algorithm "processors" entry overrides the sweep default
            point_processors = int(options.pop("processors", processors))
            point.results[algorithm] = session.run(
                algorithm,
                processors=point_processors,
                executor=spec.executor,
                workers=spec.workers,
                # the paper's sweeps cost the full same-type pair list L
                blocking="off",
                **options,
            )
        outcome.points.append(point)
    return outcome


def processors_sweep(
    experiment_id: str,
    dataset_name: str,
    dataset_factory: DatasetFactory,
    processors: Sequence[int] = (4, 8, 12, 16, 20),
    algorithms: Sequence[str] = FIGURE8_ALGORITHMS,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    **fixed: object,
) -> ExperimentSpec:
    """Exp-1 (Fig. 8 a/e/i): vary the number of processors."""
    return ExperimentSpec(
        experiment_id=experiment_id,
        dataset_name=dataset_name,
        parameter="p",
        values=tuple(processors),
        dataset_factory=dataset_factory,
        algorithms=tuple(algorithms),
        fixed=dict(fixed),
        executor=executor,
        workers=workers,
    )


def scale_sweep(
    experiment_id: str,
    dataset_name: str,
    dataset_factory: DatasetFactory,
    scales: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    algorithms: Sequence[str] = FIGURE8_ALGORITHMS,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    **fixed: object,
) -> ExperimentSpec:
    """Exp-2 (Fig. 8 b/f/j): vary the graph scale factor."""
    return ExperimentSpec(
        experiment_id=experiment_id,
        dataset_name=dataset_name,
        parameter="scale",
        values=tuple(scales),
        dataset_factory=dataset_factory,
        algorithms=tuple(algorithms),
        fixed=dict(fixed),
        executor=executor,
        workers=workers,
    )


def chain_sweep(
    experiment_id: str,
    dataset_name: str,
    dataset_factory: DatasetFactory,
    chains: Sequence[int] = (1, 2, 3, 4, 5),
    algorithms: Sequence[str] = FIGURE8_ALGORITHMS,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    **fixed: object,
) -> ExperimentSpec:
    """Exp-3 (Fig. 8 c/g/k): vary the dependency-chain length ``c``."""
    return ExperimentSpec(
        experiment_id=experiment_id,
        dataset_name=dataset_name,
        parameter="chain_length",
        values=tuple(chains),
        dataset_factory=dataset_factory,
        algorithms=tuple(algorithms),
        fixed=dict(fixed),
        executor=executor,
        workers=workers,
    )


def radius_sweep(
    experiment_id: str,
    dataset_name: str,
    dataset_factory: DatasetFactory,
    radii: Sequence[int] = (1, 2, 3, 4, 5),
    algorithms: Sequence[str] = FIGURE8_ALGORITHMS,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    **fixed: object,
) -> ExperimentSpec:
    """Exp-3 (Fig. 8 d/h/l): vary the key radius ``d``."""
    return ExperimentSpec(
        experiment_id=experiment_id,
        dataset_name=dataset_name,
        parameter="radius",
        values=tuple(radii),
        dataset_factory=dataset_factory,
        algorithms=tuple(algorithms),
        fixed=dict(fixed),
        executor=executor,
        workers=workers,
    )
