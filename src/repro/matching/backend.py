"""The one contract every matching backend implements.

The paper computes one semantics, ``chase(G, Σ)``, six ways.  What the six
share is parsed once, by :class:`EntityMatcher`.  A backend subclasses it,
declares its own knobs once as ``OptionSpec`` entries in ``options``,
implements ``_solve(executor)`` and registers ``Cls.solve`` with
``Cls.options``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..api.events import ProgressEvent, notify
from ..api.registry import OptionSpec
from ..core.equivalence import Pair
from ..core.graph import Graph
from ..core.key import KeySet
from ..exceptions import ConfigError
from ..runtime import create_executor
from .artifacts import SessionArtifacts
from .result import EMResult


class EntityMatcher:
    """Base of every backend: the shared run inputs and one ``run()``."""

    algorithm_name = ""
    #: the backend's own knobs; each becomes an attribute of the same name,
    #: set from the passed value or the spec's default
    options: Tuple[OptionSpec, ...] = ()

    def __init__(
        self,
        graph: Graph,
        keys: KeySet,
        processors: int = 4,
        *,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        artifacts: Optional[SessionArtifacts] = None,
        observer: Optional[Callable[[ProgressEvent], None]] = None,
        seed_pairs: Optional[Sequence[Pair]] = None,
        worklist: Optional[Sequence[Pair]] = None,
        blocking: str = "off",
        **options: object,
    ) -> None:
        self.graph = graph
        self.keys = keys
        self.processors = processors
        #: executor kind ("serial" / "thread" / "process"), or None: the
        #: backend runs in-process without one
        self.executor = executor
        #: real worker count of the executor pool (None: processors, capped)
        self.workers = workers
        #: the artifact cache every input is read through: the session's, or
        #: a throwaway one when the caller passed none
        self.artifacts = SessionArtifacts(graph, keys) if artifacts is None else artifacts
        self.observer = observer
        #: incremental re-matching: pairs merged into ``Eq`` before the solve
        #: (a previous run's surviving identifications) ...
        self.seed_pairs = seed_pairs
        #: ... and the candidate pairs to actually re-check (None: all)
        self.worklist = worklist
        #: candidate enumeration strategy ("off" / "auto" / "force")
        self.blocking = blocking
        for spec in self.options:
            setattr(self, spec.name, options.pop(spec.name, spec.default))
        if options:
            raise ConfigError(f"{self.algorithm_name!r} takes no option(s) {sorted(options)}")

    @classmethod
    def solve(cls, graph: Graph, keys: KeySet, **settings: object) -> EMResult:
        """Build the matcher and run it: the runner a backend registers."""
        return cls(graph, keys, **settings).run()  # type: ignore[arg-type]

    def run(self) -> EMResult:
        """Execute the algorithm and return its result."""
        started = time.perf_counter()
        executor = None
        if self.executor is not None:
            executor = create_executor(self.executor, self.workers, processors=self.processors)
        try:
            result = self._solve(executor)
        finally:
            if executor is not None:
                executor.close()
        result.wall_seconds = time.perf_counter() - started
        return result

    def _solve(self, executor) -> EMResult:
        """Compute ``chase(G, Σ)``; *executor* is the requested pool, or None."""
        raise NotImplementedError

    def _notify(self, stage: str, **fields: object) -> None:
        notify(self.observer, ProgressEvent(algorithm=self.algorithm_name, stage=stage, **fields))

    def _activated(self, pairs: Sequence[Pair]) -> List[Pair]:
        """The candidate pairs this run checks, in candidate order: all of
        them, or the worklist's members."""
        if self.worklist is None:
            return list(pairs)
        members = set(self.worklist)
        return [pair for pair in pairs if pair in members]
