"""Wire schemas of the matching service: parse requests, render responses.

Everything on the wire is plain JSON.  Parsing is strict — unknown fields,
ill-typed values and missing requirements raise
:class:`~repro.exceptions.WireError` (HTTP 400) with a message naming the
offending field, so clients get actionable errors instead of 500s.  The
non-standard constants ``NaN``, ``Infinity`` and ``-Infinity`` that
Python's ``json`` accepts are refused before a body reaches these parsers
(400 on every endpoint), so no field is ever non-finite.

Request bodies
--------------

``POST /graphs`` registers a named graph, either from inline DSL text::

    {"name": "music", "graph_text": "...", "keys_text": "...",
     "replace": false, "warm": true}

or from a registered dataset generator::

    {"name": "synth", "dataset": "synthetic",
     "dataset_options": {"scale": 0.5, "seed": 7}}

``POST /match`` submits a run; the config fields mirror
:meth:`repro.api.MatchConfig.to_dict` (minus ``snapshot_store`` and
``incremental``, which the service owns)::

    {"graph": "music", "algorithm": "EMOptVC", "processors": 8,
     "options": {"fanout": 4}, "wait": true, "timeout": 30.0}
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..api.config import MatchConfig
from ..api.registry import algorithm_specs
from ..core.graph import Graph
from ..core.key import KeySet
from ..core.parser import parse_graph, parse_keys
from ..exceptions import ParseError, ReproError, WireError
from .queue import MatchRequest


def _require(payload: Mapping[str, object], field: str, kind: type) -> object:
    value = payload.get(field)
    if value is None:
        raise WireError(f"missing required field {field!r}")
    if not isinstance(value, kind):
        raise WireError(
            f"field {field!r} expects {kind.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )
    return value


def _optional(
    payload: Mapping[str, object], field: str, kind: type, default: object = None
) -> object:
    value = payload.get(field, default)
    if value is default or value is None:
        return default
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise WireError(
            f"field {field!r} expects {kind.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )
    return value


def _reject_unknown(payload: Mapping[str, object], accepted: frozenset) -> None:
    unknown = sorted(set(payload) - accepted)
    if unknown:
        raise WireError(
            f"unknown field(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(accepted))})"
        )


# --------------------------------------------------------------------------- #
# POST /graphs
# --------------------------------------------------------------------------- #

_REGISTER_FIELDS = frozenset(
    ("name", "graph_text", "keys_text", "dataset", "dataset_options",
     "replace", "warm")
)


def parse_register_request(
    payload: Mapping[str, object],
) -> Tuple[str, Graph, KeySet, str, bool, bool]:
    """Parse a graph-registration body.

    Returns ``(name, graph, keys, source, replace, warm)``.  Exactly one of
    the inline-DSL form (``graph_text`` + ``keys_text``) and the dataset
    form (``dataset`` [+ ``dataset_options``]) must be present.
    """
    if not isinstance(payload, Mapping):
        raise WireError(f"request body must be a JSON object, got {payload!r}")
    _reject_unknown(payload, _REGISTER_FIELDS)
    name = _require(payload, "name", str)
    replace = bool(_optional(payload, "replace", bool, False))
    warm = bool(_optional(payload, "warm", bool, False))
    inline = "graph_text" in payload or "keys_text" in payload
    dataset = "dataset" in payload
    if inline == dataset:
        raise WireError(
            "register with either graph_text+keys_text or dataset, not both"
        )
    if inline:
        graph_text = _require(payload, "graph_text", str)
        keys_text = _require(payload, "keys_text", str)
        try:
            graph = parse_graph(graph_text)
            keys = parse_keys(keys_text)
        except ParseError as error:
            raise WireError(f"unparseable DSL: {error}") from error
        return name, graph, keys, "inline-dsl", replace, warm
    dataset_name = _require(payload, "dataset", str)
    options = payload.get("dataset_options", {})
    if not isinstance(options, Mapping):
        raise WireError(
            f"dataset_options must be a mapping, got {options!r}"
        )
    from ..datasets.registry import make_dataset  # deferred: heavy import

    try:
        graph, keys = make_dataset(dataset_name, **dict(options))
    except ReproError as error:
        raise WireError(f"dataset build failed: {error}") from error
    except TypeError as error:
        raise WireError(f"bad dataset_options: {error}") from error
    return name, graph, keys, f"dataset:{dataset_name}", replace, warm


# --------------------------------------------------------------------------- #
# POST /match
# --------------------------------------------------------------------------- #

_MATCH_FIELDS = frozenset(
    ("graph", "algorithm", "processors", "executor", "workers", "options",
     "wait", "timeout")
)


def parse_match_request(
    payload: Mapping[str, object],
) -> Tuple[str, MatchConfig, bool, Optional[float]]:
    """Parse a match-submission body.

    Returns ``(graph_name, config, wait, timeout)``.  ``snapshot_store``
    and ``incremental`` are deliberately not accepted: the service owns the
    store (the multiplexing contract) and decides per read whether the held
    fixpoint answers it (``provenance.delta``).
    """
    if not isinstance(payload, Mapping):
        raise WireError(f"request body must be a JSON object, got {payload!r}")
    _reject_unknown(payload, _MATCH_FIELDS)
    graph_name = _require(payload, "graph", str)
    wait = bool(_optional(payload, "wait", bool, False))
    timeout = _optional(payload, "timeout", float, None)
    if timeout is not None and timeout <= 0:
        raise WireError(f"timeout must be > 0 seconds, got {timeout!r}")
    config_fields = {
        field: payload[field]
        for field in ("algorithm", "processors", "executor", "workers", "options")
        if field in payload and payload[field] is not None
    }
    try:
        config = MatchConfig.from_dict(config_fields)
        config.resolve()  # validate the backend + options up front → 400
    except ReproError as error:
        raise WireError(str(error)) from error
    return graph_name, config, wait, timeout


_INGEST_FIELDS = frozenset(
    ("ops", "algorithm", "processors", "options", "blocking",
     "latency_budget", "max_batch_ops", "max_pending_ops")
)


def parse_ingest_request(
    payload: Mapping[str, object],
) -> Tuple[List[Mapping[str, object]], MatchConfig, float, Optional[int], Optional[int]]:
    """Parse an ingest body (``POST /graphs/<name>/ingest``).

    Returns ``(ops, config, latency_budget, max_batch_ops,
    max_pending_ops)``.  ``ops`` is a JSON array of mutation records (the
    same vocabulary as the JSONL wire format of ``repro ingest``); the
    batch the endpoint receives is one window of a continuous stream, so
    the pipeline's latency budget applies *within* the window and the
    response reports the same staleness percentiles as the CLI.
    ``max_pending_ops`` bounds the un-flushed pending window — a window
    that would push the graph's backlog past it is refused with a 429.
    """
    if not isinstance(payload, Mapping):
        raise WireError(f"request body must be a JSON object, got {payload!r}")
    _reject_unknown(payload, _INGEST_FIELDS)
    ops = payload.get("ops")
    if not isinstance(ops, list) or not all(isinstance(op, Mapping) for op in ops):
        raise WireError("'ops' must be a JSON array of mutation objects")
    latency_budget = _optional(payload, "latency_budget", float, 0.25)
    if latency_budget is None or latency_budget < 0:
        raise WireError(f"latency_budget must be >= 0 seconds, got {latency_budget!r}")
    max_batch_ops = _optional(payload, "max_batch_ops", int, None)
    if max_batch_ops is not None and max_batch_ops < 1:
        raise WireError(f"max_batch_ops must be >= 1, got {max_batch_ops!r}")
    max_pending_ops = _optional(payload, "max_pending_ops", int, None)
    if max_pending_ops is not None and max_pending_ops < 1:
        raise WireError(f"max_pending_ops must be >= 1, got {max_pending_ops!r}")
    config_fields = {
        field: payload[field]
        for field in ("algorithm", "processors", "options", "blocking")
        if field in payload and payload[field] is not None
    }
    try:
        config = MatchConfig.from_dict(config_fields)
        config.resolve()
    except ReproError as error:
        raise WireError(str(error)) from error
    return list(ops), config, float(latency_budget), max_batch_ops, max_pending_ops


# --------------------------------------------------------------------------- #
# response payloads
# --------------------------------------------------------------------------- #


def request_payload(request: MatchRequest, *, include_result: bool = False) -> Dict[str, object]:
    """The status payload of one request (``GET /requests/<id>``)."""
    payload: Dict[str, object] = {
        "id": request.id,
        "graph": request.graph,
        "config": request.describe,
        "status": request.status,
        "submitted_at": request.submitted_at,
        "started_at": request.started_at,
        "finished_at": request.finished_at,
        "queue_wait_seconds": request.queue_wait,
        "timeout": request.timeout,
        "error": request.error,
        "provenance": dict(request.provenance),
    }
    if include_result and request.result is not None:
        payload["result"] = request.result.to_dict()
    return payload


def algorithm_catalog() -> List[Dict[str, object]]:
    """Machine-readable backend discovery (``GET /algorithms``, CLI --json)."""
    catalog: List[Dict[str, object]] = []
    for spec in algorithm_specs():
        catalog.append(
            {
                "name": spec.name,
                "family": spec.family,
                "description": spec.description,
                "capabilities": sorted(spec.capabilities),
                "options": [
                    {
                        "name": option.name,
                        "type": option.type.__name__,
                        "default": option.default,
                        "description": option.description,
                    }
                    for option in spec.options
                ],
            }
        )
    return catalog
