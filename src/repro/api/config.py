"""Typed matching configuration: the knobs of a run, in one place.

A :class:`MatchConfig` consolidates what used to be scattered positional
arguments (``processors``) and unreachable backend knobs (``fanout``,
``prioritize``, ``reduce_neighborhoods``) into one validated value object.
Options are a free-form mapping validated *per backend* against the
:class:`~repro.api.registry.AlgorithmSpec` of the chosen algorithm, so a new
backend knob never requires touching the dispatcher — declare it in the
backend's ``options`` and it flows through ``MatchConfig`` untouched.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple, Union

from ..exceptions import ConfigError
from ..runtime import EXECUTOR_KINDS
from ..storage.store import SnapshotStore
from .registry import AlgorithmRegistry, AlgorithmSpec, REGISTRY

#: Default algorithm of the public API (the paper's best performer).
DEFAULT_ALGORITHM = "EMOptVC"

#: Default simulated worker count (the paper's sweeps start at p=4).
DEFAULT_PROCESSORS = 4


@dataclass(frozen=True)
class MatchConfig:
    """The full configuration of one entity-matching run.

    ``processors`` is the *simulated* cluster size ``p`` observed by the cost
    models; ``executor`` / ``workers`` select the *real* execution runtime
    (``"serial"`` / ``"thread"`` / ``"process"`` pools of ``workers`` real
    workers; ``None`` keeps the classic in-process execution).  Executor
    support is validated per backend at :meth:`resolve` time against the
    ``"executors"`` capability of the chosen
    :class:`~repro.api.registry.AlgorithmSpec`.
    """

    algorithm: str = DEFAULT_ALGORITHM
    processors: int = DEFAULT_PROCESSORS
    options: Mapping[str, object] = field(default_factory=dict)
    executor: Optional[str] = None
    workers: Optional[int] = None
    #: on-disk snapshot store (a directory path or a ``SnapshotStore``):
    #: sessions consult it before compiling a ``GraphSnapshot`` and write
    #: freshly built snapshots back; ``None`` keeps the in-memory-only path
    snapshot_store: Union[None, str, os.PathLike, SnapshotStore] = None
    #: run incrementally by default: after graph mutations, re-chase only the
    #: journal-affected candidate pairs seeded from the previous result
    #: (sessions fall back to a full run when no previous result exists or
    #: the journal window expired)
    incremental: bool = False
    #: candidate enumeration strategy: ``"off"`` is the quadratic per-type
    #: scan, ``"auto"`` enumerates through signature blocks with a per-type
    #: quadratic fallback for keys the prover cannot certify, ``"force"``
    #: raises instead of falling back (see :mod:`repro.matching.blocking`).
    #: Every mode returns the same ``Eq``; ``"auto"`` is the default because
    #: it never enumerates the quadratic pair set it can prove away (the
    #: core ``chase()`` keeps ``"off"`` as the reference oracle).  A backend
    #: without the ``"blocking"`` capability keeps its own enumeration under
    #: ``"auto"``; ``"force"`` is validated against it at :meth:`resolve`.
    blocking: str = "auto"

    def __post_init__(self) -> None:
        if not isinstance(self.incremental, bool):
            raise ConfigError(
                f"incremental must be a bool, got {self.incremental!r}"
            )
        if self.blocking not in ("off", "auto", "force"):
            raise ConfigError(
                f"unknown blocking mode {self.blocking!r}; "
                f"expected one of off, auto, force"
            )
        if not isinstance(self.processors, int) or isinstance(self.processors, bool):
            raise ConfigError(f"processors must be an int, got {self.processors!r}")
        if self.processors < 1:
            raise ConfigError(f"processors must be >= 1, got {self.processors}")
        if self.executor is not None and self.executor not in EXECUTOR_KINDS:
            raise ConfigError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {', '.join(EXECUTOR_KINDS)}"
            )
        if self.workers is not None:
            if not isinstance(self.workers, int) or isinstance(self.workers, bool):
                raise ConfigError(f"workers must be an int, got {self.workers!r}")
            if self.workers < 1:
                raise ConfigError(f"workers must be >= 1, got {self.workers}")
            if self.executor is None:
                raise ConfigError("workers requires an executor (e.g. executor='process')")
        if self.snapshot_store is not None and not isinstance(
            self.snapshot_store, (str, os.PathLike, SnapshotStore)
        ):
            raise ConfigError(
                f"snapshot_store must be a directory path or a SnapshotStore, "
                f"got {type(self.snapshot_store).__name__} {self.snapshot_store!r}"
            )
        # freeze the options mapping into a plain dict we own
        object.__setattr__(self, "options", dict(self.options))

    def __hash__(self) -> int:
        # the generated frozen-dataclass hash would choke on the options dict
        return hash(
            (
                self.run_shape(),
                None if self.snapshot_store is None else str(self.snapshot_store),
                self.incremental,
            )
        )

    def run_shape(self) -> Tuple[object, ...]:
        """The result-shaping knobs of this config, as a hashable key.

        Two configs with equal shapes produce the same ``EMResult`` on the
        same graph: the ``incremental`` flag and the snapshot store change
        how a run executes, never what it returns, so they are left out.
        Everything else (backend, processors, executor, blocking, options)
        shapes the result's statistics and must match exactly.
        """
        return (
            self.algorithm,
            self.processors,
            self.executor,
            self.workers,
            self.blocking,
            tuple(sorted(self.options.items())),
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable wire form (the service's request schema).

        The snapshot store travels as its directory path (``str``) — a live
        :class:`SnapshotStore` handle is a per-process object.
        """
        return {
            "algorithm": self.algorithm,
            "processors": self.processors,
            "executor": self.executor,
            "workers": self.workers,
            "snapshot_store": (
                None if self.snapshot_store is None else str(self.snapshot_store)
            ),
            "incremental": self.incremental,
            "blocking": self.blocking,
            "options": dict(self.options),
        }

    #: the keys :meth:`from_dict` accepts — anything else is a client error
    _WIRE_FIELDS = frozenset(
        ("algorithm", "processors", "executor", "workers",
         "snapshot_store", "incremental", "blocking", "options")
    )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MatchConfig":
        """Build a config from a wire mapping, rejecting unknown keys.

        Raises :class:`~repro.exceptions.ConfigError` on unknown keys or
        ill-typed values (the same validation the constructor applies), so a
        service front end can turn any bad request into a clean 400.
        """
        unknown = sorted(set(payload) - cls._WIRE_FIELDS)
        if unknown:
            raise ConfigError(
                f"unknown config field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(cls._WIRE_FIELDS))})"
            )
        options = payload.get("options", {})
        if not isinstance(options, Mapping):
            raise ConfigError(f"options must be a mapping, got {options!r}")
        kwargs: Dict[str, object] = {"options": dict(options)}
        for name in ("algorithm", "processors", "executor", "workers",
                     "snapshot_store", "incremental", "blocking"):
            if name in payload and payload[name] is not None:
                kwargs[name] = payload[name]
        if "algorithm" in kwargs and not isinstance(kwargs["algorithm"], str):
            raise ConfigError(f"algorithm must be a string, got {kwargs['algorithm']!r}")
        return cls(**kwargs)  # type: ignore[arg-type]

    def with_options(self, **options: object) -> "MatchConfig":
        """A copy of this config with *options* merged in."""
        merged = dict(self.options)
        merged.update(options)
        return replace(self, options=merged)

    def using(self, algorithm: str, **options: object) -> "MatchConfig":
        """A copy targeting *algorithm*, replacing the backend options."""
        return replace(self, algorithm=algorithm, options=dict(options))

    def resolve(
        self, registry: Optional[AlgorithmRegistry] = None
    ) -> Tuple[AlgorithmSpec, Dict[str, object]]:
        """Look up the algorithm spec and validate the options against it.

        Raises :class:`~repro.exceptions.MatchingError` for unknown algorithm
        names and :class:`~repro.exceptions.ConfigError` for options the
        backend does not accept (or of the wrong type), or when an executor
        is requested from a backend without the ``"executors"`` capability.
        """
        # explicit None-check: an empty registry is falsy (it has __len__)
        spec = (REGISTRY if registry is None else registry).get(self.algorithm)
        if self.executor is not None and "executors" not in spec.capabilities:
            raise ConfigError(
                f"algorithm {spec.name!r} does not support executor selection "
                f"(requested executor={self.executor!r})"
            )
        if self.blocking == "force" and "blocking" not in spec.capabilities:
            raise ConfigError(
                f"algorithm {spec.name!r} does not support blocked candidate "
                f"generation (requested blocking={self.blocking!r})"
            )
        return spec, spec.validate_options(self.options)

    def validated(self, registry: Optional[AlgorithmRegistry] = None) -> "MatchConfig":
        """Validate and return self (fluent form of :meth:`resolve`)."""
        self.resolve(registry)
        return self

    def describe(self) -> str:
        """Human-readable one-liner, e.g. for provenance logs."""
        parts = [f"p={self.processors}"]
        if self.executor is not None:
            parts.append(f"executor={self.executor}")
            if self.workers is not None:
                parts.append(f"workers={self.workers}")
        if self.snapshot_store is not None:
            parts.append(f"store={str(self.snapshot_store)!r}")
        if self.incremental:
            parts.append("incremental")
        if self.blocking != "off":
            parts.append(f"blocking={self.blocking}")
        parts.extend(f"{k}={v!r}" for k, v in sorted(self.options.items()))
        return f"{self.algorithm}({', '.join(parts)})"
