"""The algorithm registry: one pluggable dispatch table for every matching backend.

The paper contributes a *family* of interchangeable entity-matching
algorithms; this module makes the family extensible.  Each backend registers
itself with :func:`register_algorithm`, declaring its name, family, the
backend-specific options it accepts and the capabilities it offers.  The
public dispatchers (:func:`repro.match_entities`, the
:class:`~repro.api.session.MatchSession` facade and the CLI) resolve names
through the registry instead of a hardcoded if/elif ladder, so adding a new
backend never requires touching them.

``ALGORITHMS`` is a *live* ordered view of the registered names: registering
or unregistering an algorithm is immediately visible to every holder of the
view (the CLI builds its ``--algorithm`` choices from it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..exceptions import ConfigError, MatchingError


@dataclass(frozen=True)
class OptionSpec:
    """One backend-specific option accepted by an algorithm."""

    name: str
    type: type = object
    default: object = None
    description: str = ""
    #: the smallest accepted value of a numeric knob (None: unbounded)
    minimum: Optional[float] = None

    def validate(self, value: object) -> object:
        """Type- and range-check *value*, returning the (possibly coerced) value."""
        if self.type is object:
            return value
        # bool is an int subclass; an int-typed knob must not accept True.
        if isinstance(value, bool) and self.type is not bool:
            raise ConfigError(
                f"option {self.name!r} expects {self.type.__name__}, got bool {value!r}"
            )
        if self.type is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, self.type):
            raise ConfigError(
                f"option {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__} {value!r}"
            )
        if self.minimum is not None and value < self.minimum:  # type: ignore[operator]
            raise ConfigError(
                f"option {self.name!r} must be >= {self.minimum}, got {value!r}"
            )
        return value


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered matching backend: identity, knobs, and how to run it.

    ``runner`` is called as ``runner(graph, keys, processors=..., artifacts=...,
    observer=..., **runtime, **options)`` and must return an
    :class:`~repro.matching.result.EMResult`.  ``artifacts`` is the per-session
    cache of precomputed indexes (``None`` for one-shot runs) and ``observer``
    an optional per-round progress callback; ``runtime`` carries only what
    the capabilities admit (see :meth:`run`).  A built-in backend's runner is
    its ``EntityMatcher`` class's ``solve``; a plugin's may be any function.
    """

    name: str
    family: str
    runner: Callable[..., object]
    options: Tuple[OptionSpec, ...] = ()
    capabilities: frozenset = frozenset()
    description: str = ""

    def option_names(self) -> Tuple[str, ...]:
        return tuple(option.name for option in self.options)

    def option(self, name: str) -> Optional[OptionSpec]:
        for option in self.options:
            if option.name == name:
                return option
        return None

    def validate_options(self, options: Mapping[str, object]) -> Dict[str, object]:
        """Reject options this backend does not accept; type-check the rest."""
        validated: Dict[str, object] = {}
        for name, value in options.items():
            spec = self.option(name)
            if spec is None:
                accepted = ", ".join(self.option_names()) or "none"
                raise ConfigError(
                    f"algorithm {self.name!r} does not accept option {name!r} "
                    f"(accepted options: {accepted})"
                )
            validated[name] = spec.validate(value)
        return validated

    def validate_request(
        self,
        options: Mapping[str, object],
        *,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        blocking: Optional[str] = None,
    ) -> Dict[str, object]:
        """Check a run request against the capabilities, then validate the
        options: ``workers`` needs an ``executor``, an executor needs the
        ``"executors"`` capability and ``blocking="force"`` the
        ``"blocking"`` one (``"auto"`` falls back where it cannot block)."""
        if workers is not None and executor is None:
            raise ConfigError(
                f"algorithm {self.name!r}: workers requires an executor "
                f"(e.g. executor='process')"
            )
        if executor is not None and "executors" not in self.capabilities:
            raise ConfigError(
                f"algorithm {self.name!r} does not support executor selection "
                f"(requested executor={executor!r})"
            )
        if blocking == "force" and "blocking" not in self.capabilities:
            raise ConfigError(
                f"algorithm {self.name!r} does not support blocked "
                f"candidate generation (requested blocking={blocking!r})"
            )
        return self.validate_options(options)

    def run(
        self,
        graph: object,
        keys: object,
        *,
        processors: int = 4,
        options: Optional[Mapping[str, object]] = None,
        artifacts: Optional[object] = None,
        observer: Optional[Callable[[object], None]] = None,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        seed: Optional[object] = None,
        worklist: Optional[Sequence[Tuple[str, str]]] = None,
        blocking: Optional[str] = None,
    ) -> object:
        """Validate the request (:meth:`validate_request`) and invoke the runner.

        ``executor`` / ``workers`` select the real execution runtime; they are
        forwarded only to backends declaring the ``"executors"`` capability.
        ``seed`` / ``worklist`` are the incremental re-matching inputs (the
        ``Eq`` to start from and merge into — a fork of a previous run's
        fixpoint — and the affected pairs to re-chase); they require the
        ``"incremental"`` capability.
        ``blocking`` (``"auto"``/``"force"``) selects blocked candidate
        generation; a backend without the ``"blocking"`` capability keeps
        its own enumeration under ``"auto"`` (the public default — it falls
        back wherever it cannot block).
        """
        validated = self.validate_request(
            options or {}, executor=executor, workers=workers, blocking=blocking
        )
        runtime_kwargs: Dict[str, object] = {}
        if executor is not None:
            runtime_kwargs["executor"] = executor
            runtime_kwargs["workers"] = workers
        if seed is not None or worklist is not None:
            if "incremental" not in self.capabilities:
                raise ConfigError(
                    f"algorithm {self.name!r} does not support incremental "
                    f"re-matching (seed/worklist)"
                )
            runtime_kwargs["seed"] = seed
            runtime_kwargs["worklist"] = worklist
        if blocking not in (None, "off") and "blocking" in self.capabilities:
            runtime_kwargs["blocking"] = blocking
        return self.runner(
            graph,
            keys,
            processors=processors,
            artifacts=artifacts,
            observer=observer,
            **runtime_kwargs,
            **validated,
        )


class AlgorithmRegistry:
    """Name → :class:`AlgorithmSpec`, case-insensitive, insertion-ordered."""

    def __init__(self) -> None:
        self._specs: Dict[str, AlgorithmSpec] = {}

    def register(self, spec: AlgorithmSpec, replace: bool = False) -> AlgorithmSpec:
        existing = self._canonical(spec.name)
        if existing is not None and not replace:
            raise MatchingError(
                f"algorithm {spec.name!r} is already registered (as {existing!r}); "
                f"pass replace=True to override"
            )
        if existing is not None:
            del self._specs[existing]
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        canonical = self._canonical(name)
        if canonical is None:
            raise MatchingError(f"cannot unregister unknown algorithm {name!r}")
        del self._specs[canonical]

    def get(self, name: str) -> AlgorithmSpec:
        canonical = self._canonical(name)
        if canonical is None:
            raise MatchingError(
                f"unknown algorithm {name!r}; expected one of {', '.join(self.names())}"
            )
        return self._specs[canonical]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._specs.keys())

    def specs(self) -> Tuple[AlgorithmSpec, ...]:
        return tuple(self._specs.values())

    def _canonical(self, name: str) -> Optional[str]:
        lowered = name.lower()
        for registered in self._specs:
            if registered.lower() == lowered:
                return registered
        return None

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._canonical(name) is not None

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._specs)


class AlgorithmsView(Sequence[str]):
    """A live, ordered, read-only view of the registered algorithm names."""

    def __init__(self, registry: AlgorithmRegistry) -> None:
        self._registry = registry

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.names())

    def __len__(self) -> int:
        return len(self._registry)

    def __getitem__(self, index):  # type: ignore[override]
        return self._registry.names()[index]

    def __contains__(self, name: object) -> bool:
        return name in self._registry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AlgorithmsView({', '.join(self._registry.names())})"


#: The process-wide registry the built-in backends register into.
REGISTRY = AlgorithmRegistry()

#: Live view of the registered algorithm names (in registration order).
ALGORITHMS = AlgorithmsView(REGISTRY)


def register_algorithm(
    name: str,
    *,
    family: str,
    options: Sequence[OptionSpec] = (),
    capabilities: Sequence[str] = (),
    description: str = "",
    registry: Optional[AlgorithmRegistry] = None,
) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Decorator registering a runner as a matching backend.

    A built-in backend registers its matcher class's ``solve`` with the
    class's ``options``; a plugin may register a plain function::

        @register_algorithm("Mine", family="custom",
                            options=(OptionSpec("depth", int, 2, minimum=1),))
        def _run(graph, keys, *, processors=4, artifacts=None, observer=None,
                 depth=2):
            ...
    """

    def decorator(runner: Callable[..., object]) -> Callable[..., object]:
        doc = (runner.__doc__ or "").strip().splitlines()
        spec = AlgorithmSpec(
            name=name,
            family=family,
            runner=runner,
            options=tuple(options),
            capabilities=frozenset(capabilities),
            description=description or (doc[0] if doc else ""),
        )
        # explicit None-check: an empty registry is falsy (it has __len__)
        target = REGISTRY if registry is None else registry
        target.register(spec)
        return runner

    return decorator


def get_algorithm(name: str) -> AlgorithmSpec:
    """Resolve *name* (case-insensitively) in the global registry."""
    return REGISTRY.get(name)


def algorithm_specs() -> Tuple[AlgorithmSpec, ...]:
    """All registered specs, in registration order."""
    return REGISTRY.specs()
