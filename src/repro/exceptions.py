"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class at API boundaries while still being able to
distinguish graph-model errors from pattern/key errors, parser errors and
runtime errors of the simulated execution substrates.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Problems with graph construction or graph queries."""


class UnknownEntityError(GraphError):
    """An entity id was referenced that does not exist in the graph."""

    def __init__(self, entity_id: str):
        super().__init__(f"unknown entity: {entity_id!r}")
        self.entity_id = entity_id


class DuplicateEntityError(GraphError):
    """An entity id was added twice with conflicting types."""

    def __init__(self, entity_id: str, existing_type: str, new_type: str):
        super().__init__(
            f"entity {entity_id!r} already exists with type {existing_type!r}; "
            f"cannot re-add with type {new_type!r}"
        )
        self.entity_id = entity_id
        self.existing_type = existing_type
        self.new_type = new_type


class PatternError(ReproError):
    """Problems with graph-pattern construction or validation."""


class KeyError_(PatternError):
    """Problems with key construction or validation.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`KeyError`; exported from the package as ``InvalidKeyError``.
    """


InvalidKeyError = KeyError_


class ParseError(ReproError):
    """Problems parsing the textual graph / key DSL."""

    def __init__(self, message: str, line: int | None = None):
        location = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line


class MatchingError(ReproError):
    """Problems during entity matching (bad configuration, unknown algorithm)."""


class ConfigError(MatchingError):
    """An invalid :class:`~repro.api.MatchConfig`: bad processor count, an
    option the chosen backend does not accept, or an option of the wrong type."""


class ProofError(ReproError):
    """A proof graph failed verification."""


class SnapshotPatchError(ReproError):
    """``GraphSnapshot.patched`` was handed a journal window that does not
    cover the delta between the snapshot and the live graph.  The session's
    artifact cache answers this one error with a rebuild, and counts it."""


class StoreError(ReproError):
    """Errors raised by the on-disk snapshot store (``repro.storage.store``).

    Callers that consult the store opportunistically (``SessionArtifacts``)
    catch this base class and fall back to a clean in-memory rebuild.
    """


class StoreFormatError(StoreError):
    """A stored snapshot file is structurally unreadable: bad magic, a
    truncated preamble/header/segment, or an unparsable header."""


class StoreVersionError(StoreError):
    """A stored snapshot uses a different (past or future) format version."""


class StoreStaleError(StoreError):
    """A stored snapshot does not describe the graph at hand: its content
    fingerprint or recorded ``Graph.version`` no longer matches."""


class StoreMissError(StoreError):
    """The store holds no snapshot for the requested graph fingerprint."""


class ExecutorError(ReproError):
    """Errors raised by the shared execution runtime (executors, partitioners)."""


class MapReduceError(ReproError):
    """Errors raised by the simulated MapReduce substrate."""


class VertexCentricError(ReproError):
    """Errors raised by the simulated vertex-centric substrate."""


class DatasetError(ReproError):
    """Errors raised by dataset generators."""


class ServiceError(ReproError):
    """Errors raised by the matching service layer (``repro.service``)."""


class WireError(ServiceError):
    """A malformed service request: unparseable JSON, unknown or ill-typed
    fields.  Maps to HTTP 400."""


class UnknownGraphError(ServiceError):
    """A request referenced a graph name the registry does not hold.
    Maps to HTTP 404."""


class UnknownRequestError(ServiceError):
    """A request id the service does not hold (never existed or evicted).
    Maps to HTTP 404."""


class AdmissionError(ServiceError):
    """The service refused a request because the admission queue is full.
    Maps to HTTP 429 — the client should back off and retry.

    ``retry_after`` (seconds, optional) is the server's estimate of when
    capacity frees up, derived from measured queue depth × mean batch/run
    time; the HTTP layer forwards it as the ``Retry-After`` header.
    """

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceUnavailableError(ServiceError):
    """The service is draining (graceful shutdown): queued work still
    finishes but new submissions are refused.  Maps to HTTP 503 with a
    ``Retry-After`` estimating when (a restarted instance of) the service
    can take the request."""

    def __init__(self, message: str, *, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class WalError(ServiceError):
    """Errors raised by the write-ahead op journal (``repro.service.wal``):
    an unreadable or corrupt segment, or a journal whose recorded
    fingerprints do not describe the graph being recovered."""
