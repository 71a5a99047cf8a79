"""On-disk persistence for :class:`~repro.storage.snapshot.GraphSnapshot`.

The snapshot compiles a graph into interning tables + CSR ``int64`` arrays;
this module gives that compilation a **versioned binary file format** and a
**directory cache** (:class:`SnapshotStore`) keyed by a content fingerprint
of the source graph, so cold starts skip the build entirely and a process
pool on one machine shares one physical copy of the arrays through the page
cache.

File layout (all integers little-endian)::

    offset  0   magic            b"RKGSNAPS"                       8 bytes
    offset  8   format version   u16  (FORMAT_VERSION)             2 bytes
    offset 10   reserved         u16  (zero)                       2 bytes
    offset 12   header length    u32                               4 bytes
    offset 16   header           UTF-8 JSON, `header length` bytes
    pad to 8    segment area     raw segments, each 8-byte aligned

The JSON header records the source graph's :attr:`Graph.version`, the
content fingerprint, byte order, node/triple counts, the entity-type ranges
and a ``{name: [offset, length]}`` segment table (offsets relative to the
segment area).  Segments are the eight CSR arrays as raw ``int64`` bytes,
plus three *string tables* (entity ids, predicates, literals) stored as an
``int64`` offsets array over a concatenated UTF-8 blob; literals carry one
tag byte each (str/int/float/bool/None inline, pickle only as a fallback
for exotic hashable values).

A **delta file** is the second file kind (header field ``kind``): the same
container holding a *patched* snapshot's overlay — cumulative since its
canonical ancestor, whose fingerprint the header names — and nothing of the
graph.  A delta depends on exactly one canonical file in the same directory
and never on another delta, so there are no chains to walk, validate or
collect; its size is a function of the overlay, not of the graph.

Loads go through :func:`read_snapshot`, which by default ``mmap``\\ s the
file and exposes every array segment as a read-only :class:`memoryview`
over the mapping — no bytes are copied, and concurrent readers of one file
share physical memory.  A snapshot loaded this way (or saved through the
store) remembers its path and **pickles as a path stub**: process-pool
workers re-attach by ``mmap`` instead of receiving the arrays through the
pipe (the runtime's attach-by-path mode).

Every structural problem raises a typed :class:`~repro.exceptions.StoreError`
subclass so opportunistic callers can fall back to a clean rebuild.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import struct
import sys
import tempfile
import threading
import zlib
from array import array
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.graph import Graph
from ..core.triples import Literal
from ..exceptions import (
    StoreError,
    StoreFormatError,
    StoreMissError,
    StoreStaleError,
    StoreVersionError,
)
from .snapshot import _ID, GraphSnapshot, _Overlay

#: File magic: identifies a Repro Keys Graph SNAPShot file.
MAGIC = b"RKGSNAPS"

#: Format version of files this build writes (and the only one it reads).
#: Version 2 added the inverted value-index segments (``vindex_*``) that back
#: the blocking layer; version-1 files raise a clean
#: :class:`~repro.exceptions.StoreVersionError`, which ``get_or_build``
#: answers with a rebuild-and-save of the current format.
FORMAT_VERSION = 2

#: File suffix used by :class:`SnapshotStore` entries.
SNAPSHOT_SUFFIX = ".snap"

#: ``magic + format version + reserved + header length``.
_PREAMBLE = struct.Struct("<8sHHI")

#: The raw ``int64`` array segments, in file order.
_ARRAY_SEGMENTS = (
    "fwd_offsets",
    "fwd_preds",
    "fwd_objs",
    "bwd_offsets",
    "bwd_preds",
    "bwd_subjs",
    "und_offsets",
    "und_targets",
    "vindex_offsets",
    "vindex_literals",
    "vindex_subjects",
)

#: The string-table segments, in file order.
_TABLE_SEGMENTS = (
    "entity_offsets",
    "entity_blob",
    "pred_offsets",
    "pred_blob",
    "literal_tags",
    "literal_offsets",
    "literal_blob",
)

_ALL_SEGMENTS = _ARRAY_SEGMENTS + _TABLE_SEGMENTS

#: The segments of a delta file, in file order: the overlay's tombstones,
#: its packed rows (ids, offsets, rows) and the table of appended nodes.
_DELTA_SEGMENTS = (
    "ov_dead",
    "ov_row_ids",
    "ov_row_offsets",
    "ov_rows",
    "ov_node_tags",
    "ov_node_offsets",
    "ov_node_blob",
)


def _segment_names(header: dict) -> Tuple[str, ...]:
    return _DELTA_SEGMENTS if header.get("kind") == "delta" else _ALL_SEGMENTS


def _pad8(length: int) -> int:
    return (length + 7) & ~7


# --------------------------------------------------------------------------- #
# content fingerprinting
# --------------------------------------------------------------------------- #


def _encode_node(node) -> Tuple[bytes, bytes]:
    """Encode one node as ``(tag, payload)``; text forms round-trip exactly.

    An entity id (only a delta's table of appended nodes holds any) is tag
    ``e``; the rest are literal values.  ``type() is`` checks (not
    ``isinstance``) keep subclasses on the generic pickle path, whose decode
    restores the exact object.
    """
    if type(node) is str:
        return b"e", node.encode("utf-8")
    value = node.value
    if type(value) is str:
        return b"s", value.encode("utf-8")
    if type(value) is bool:
        return b"b", b"1" if value else b"0"
    if type(value) is int:
        return b"i", str(value).encode("ascii")
    if type(value) is float:
        return b"f", repr(value).encode("ascii")
    if value is None:
        return b"n", b""
    return b"p", pickle.dumps(value, protocol=4)


def _decode_node(tag: int, payload: bytes):
    if tag == ord("e"):
        return payload.decode("utf-8")
    if tag == ord("s"):
        return Literal(payload.decode("utf-8"))
    if tag == ord("b"):
        return Literal(payload == b"1")
    if tag == ord("i"):
        return Literal(int(payload))
    if tag == ord("f"):
        return Literal(float(payload))
    if tag == ord("n"):
        return Literal(None)
    if tag == ord("p"):
        return Literal(pickle.loads(payload))
    raise StoreFormatError(f"unknown node tag {tag!r} in snapshot file")


# The fingerprint implementation lives in core.fingerprint (Graph maintains
# the accumulator incrementally); these re-exports keep the store module the
# public home of the fingerprint API.
from ..core.fingerprint import fingerprint_of, graph_fingerprint  # noqa: E402  (re-export)


# --------------------------------------------------------------------------- #
# writing
# --------------------------------------------------------------------------- #


def _string_table(strings: Sequence[str]) -> Tuple[bytes, bytes]:
    """Pack *strings* into ``(offsets, blob)`` — int64 offsets over UTF-8."""
    parts = [text.encode("utf-8") for text in strings]
    offsets = array(_ID, accumulate(map(len, parts), initial=0))
    return offsets.tobytes(), b"".join(parts)


def _node_table(nodes: Sequence[object]) -> Tuple[bytes, bytes, bytes]:
    """Pack *nodes* into ``(tags, offsets, blob)``."""
    encoded = [_encode_node(node) for node in nodes]
    parts = [payload for _, payload in encoded]
    offsets = array(_ID, accumulate(map(len, parts), initial=0))
    return b"".join(tag for tag, _ in encoded), offsets.tobytes(), b"".join(parts)


#: The snapshot attribute of each array segment.
_ARRAY_ATTRS = tuple(f"_{name}" for name in _ARRAY_SEGMENTS)


def _snapshot_segments(snapshot: GraphSnapshot) -> Dict[str, bytes]:
    """The raw segment payloads of a canonical *snapshot*."""
    segments: Dict[str, bytes] = {}
    for name, attr in zip(_ARRAY_SEGMENTS, _ARRAY_ATTRS):
        # bytes() handles both array('q') values and mmap-backed memoryviews
        segments[name] = bytes(getattr(snapshot, attr))
    node_of, split = snapshot._node_of, snapshot._num_entities
    tables = (
        *_string_table(node_of[:split]),
        *_string_table(snapshot._pred_of),
        *_node_table(node_of[split:]),
    )
    segments.update(zip(_TABLE_SEGMENTS, tables))
    return segments


def _write_file(
    target: Path, header: Dict[str, object], names: Sequence[str], segments: Dict[str, bytes]
) -> Path:
    """Write one store file: preamble, JSON *header* (completed with the
    segment table and checksum), the *names* segments in order.

    The write is atomic (temp file + rename) and deterministic: the same
    header and payloads always produce identical bytes.
    """
    table: Dict[str, Tuple[int, int]] = {}
    checksum = 0
    offset = 0
    for name in names:
        payload = segments[name]
        table[name] = (offset, len(payload))
        checksum = zlib.crc32(payload, checksum)
        offset = _pad8(offset + len(payload))
    header = dict(
        header,
        format_version=FORMAT_VERSION,
        byteorder=sys.byteorder,
        itemsize=8,
        checksum=checksum,
        segments={name: list(span) for name, span in table.items()},
    )
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    preamble = _PREAMBLE.pack(MAGIC, FORMAT_VERSION, 0, len(header_bytes))
    data_start = _pad8(len(preamble) + len(header_bytes))

    # a unique temp name per writer: concurrent saves of the same fingerprint
    # each write their own inode and the last os.replace wins atomically, so
    # mmap readers can never observe a torn file
    fd, temp = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(preamble)
            handle.write(header_bytes)
            handle.write(b"\x00" * (data_start - len(preamble) - len(header_bytes)))
            for name in names:
                payload = segments[name]
                handle.write(payload)
                handle.write(b"\x00" * (_pad8(len(payload)) - len(payload)))
        os.chmod(temp, 0o644)  # mkstemp's 0600 would hide the file from pool users
        os.replace(temp, target)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    return target


def write_snapshot(
    snapshot: GraphSnapshot,
    path: Union[str, os.PathLike],
    *,
    fingerprint: str,
) -> Path:
    """Serialize *snapshot* to *path* as a canonical file.

    *fingerprint* is the content fingerprint of the source graph
    (:func:`graph_fingerprint`).  A patched snapshot is compacted first, so
    the bytes depend on the graph's content alone, never on its history.
    """
    snapshot = snapshot.compacted()
    header = {
        "graph_version": snapshot.version,
        "fingerprint": fingerprint,
        "num_entities": snapshot._num_entities,
        "num_nodes": len(snapshot._node_of),
        "num_triples": snapshot._num_triples,
        "num_predicates": len(snapshot._pred_of),
        "types": [
            [etype, lo, hi] for etype, (lo, hi) in sorted(snapshot._type_ranges.items())
        ],
    }
    return _write_file(Path(path), header, _ALL_SEGMENTS, _snapshot_segments(snapshot))


def _write_delta(
    snapshot: GraphSnapshot, path: Path, *, fingerprint: str, ancestor: str
) -> Path:
    """Write the overlay of a patched *snapshot* to *path* as a delta file
    over the canonical file of fingerprint *ancestor*."""
    packed = snapshot._overlay.packed()
    header = {
        "kind": "delta",
        "ancestor": ancestor,
        "graph_version": snapshot.version,
        "fingerprint": fingerprint,
        "num_entities": snapshot.num_entities,
        "num_nodes": snapshot.num_nodes,
        "num_triples": snapshot._num_triples,
        "num_predicates": (
            len(snapshot._pred_of) + len(packed["preds"]) - len(packed["dead_preds"])
        ),
        "types": [],
        "overlay": {
            "preds": packed["preds"],
            "etypes": [list(item) for item in packed["etypes"]],
            "dead_preds": packed["dead_preds"],
            # what the segments hold, for `snapshot info`; loads do not read it
            "sizes": {name: len(packed[name]) for name in ("row_ids", "dead", "nodes")},
        },
    }
    payloads = (
        *(packed[name].tobytes() for name in ("dead", "row_ids", "row_offsets")),
        packed["rows"],
        *_node_table(packed["nodes"]),
    )
    return _write_file(path, header, _DELTA_SEGMENTS, dict(zip(_DELTA_SEGMENTS, payloads)))


# --------------------------------------------------------------------------- #
# reading
# --------------------------------------------------------------------------- #


def _read_header(raw: bytes, path: Path) -> Tuple[dict, int]:
    """Parse and validate preamble + header; returns ``(header, data_start)``."""
    if len(raw) < _PREAMBLE.size:
        raise StoreFormatError(f"{path}: truncated preamble ({len(raw)} bytes)")
    magic, version, _reserved, header_len = _PREAMBLE.unpack_from(raw)
    if magic != MAGIC:
        raise StoreFormatError(f"{path}: bad magic {magic!r} (not a snapshot file)")
    if version != FORMAT_VERSION:
        raise StoreVersionError(
            f"{path}: format version {version} is not the supported {FORMAT_VERSION}"
        )
    header_end = _PREAMBLE.size + header_len
    if len(raw) < header_end:
        raise StoreFormatError(f"{path}: truncated header ({len(raw)} of {header_end} bytes)")
    try:
        header = json.loads(raw[_PREAMBLE.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreFormatError(f"{path}: unreadable header ({exc})") from exc
    for field in ("format_version", "graph_version", "fingerprint", "byteorder",
                  "segments", "types", "num_entities", "num_nodes", "num_triples",
                  "num_predicates", "checksum"):
        if field not in header:
            raise StoreFormatError(f"{path}: header is missing the {field!r} field")
    if header["byteorder"] != sys.byteorder:
        raise StoreFormatError(
            f"{path}: written on a {header['byteorder']}-endian machine, "
            f"this one is {sys.byteorder}-endian"
        )
    return header, _pad8(header_end)


def _check_segments(header: dict, data_start: int, file_size: int, path: Path) -> None:
    segments = header["segments"]
    for name in _segment_names(header):
        if name not in segments:
            raise StoreFormatError(f"{path}: header is missing segment {name!r}")
        offset, length = segments[name]
        if offset < 0 or length < 0 or data_start + offset + length > file_size:
            raise StoreFormatError(
                f"{path}: segment {name!r} ({offset}+{length}) exceeds the "
                f"file size ({file_size} bytes); the file is truncated"
            )


@contextmanager
def _opened(source: Path):
    """Open the store file at *source* and parse its header: yields
    ``(handle, header, data_start, file_size)``.  Failing to open it is a
    typed :class:`~repro.exceptions.StoreError`."""
    try:
        handle = open(source, "rb")
    except FileNotFoundError as exc:
        raise StoreMissError(f"{source}: no such snapshot file") from exc
    except OSError as exc:
        raise StoreError(f"{source}: cannot open snapshot file ({exc})") from exc
    with handle:
        head = handle.read(_PREAMBLE.size + 4096)
        if len(head) >= _PREAMBLE.size:
            header_len = _PREAMBLE.unpack_from(head)[3]
            if len(head) < _PREAMBLE.size + header_len:
                head += handle.read(_PREAMBLE.size + header_len - len(head))
        header, data_start = _read_header(head, source)
        yield handle, header, data_start, os.fstat(handle.fileno()).st_size


def _decode_strings(offsets_raw, blob, count: int) -> List[str]:
    offsets = memoryview(offsets_raw).cast(_ID)
    return [bytes(blob[offsets[i] : offsets[i + 1]]).decode("utf-8") for i in range(count)]


def _decode_nodes(tags, offsets_raw, blob, count: int, source: Path) -> List[object]:
    offsets = memoryview(offsets_raw).cast(_ID)
    if len(tags) != count or len(offsets) != count + 1:
        raise StoreFormatError(f"{source}: node table does not match the node counts")
    return [
        _decode_node(tags[i], bytes(blob[offsets[i] : offsets[i + 1]])) for i in range(count)
    ]


def read_snapshot(
    path: Union[str, os.PathLike],
    *,
    use_mmap: bool = True,
    expect_fingerprint: Optional[str] = None,
    expect_graph_version: Optional[int] = None,
    attach: bool = True,
) -> GraphSnapshot:
    """Load a :class:`GraphSnapshot` from *path*.

    With ``use_mmap=True`` (the default) the array segments become read-only
    :class:`memoryview`\\ s over a shared file mapping — nothing is copied
    and every process mapping the same file shares one physical copy.  The
    optional ``expect_*`` arguments make staleness a hard error
    (:class:`~repro.exceptions.StoreStaleError`); with ``attach=True`` the
    returned snapshot remembers *path* and pickles as a path stub.

    A delta file loads as a patched snapshot: its canonical ancestor is read
    (and validated) from the same directory and the overlay applied over it.
    A missing or corrupt ancestor is the same typed
    :class:`~repro.exceptions.StoreError` a missing or corrupt file is.
    """
    source = Path(path)
    with _opened(source) as (handle, header, data_start, file_size):
        _check_segments(header, data_start, file_size, source)
        if expect_fingerprint is not None and header["fingerprint"] != expect_fingerprint:
            raise StoreStaleError(
                f"{source}: stored fingerprint {header['fingerprint'][:12]}… does "
                f"not match the graph's {expect_fingerprint[:12]}…"
            )
        if expect_graph_version is not None and header["graph_version"] != expect_graph_version:
            raise StoreStaleError(
                f"{source}: stored Graph.version {header['graph_version']} is stale "
                f"(the graph is at version {expect_graph_version})"
            )
        if use_mmap:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            data = memoryview(mapped)  # keeps the mapping alive
        else:
            handle.seek(0)
            data = memoryview(handle.read())

    def segment(name: str):
        offset, length = header["segments"][name]
        return data[data_start + offset : data_start + offset + length]

    if header.get("kind") == "delta":
        ancestor = read_snapshot(
            source.with_name(f"{header['ancestor']}{SNAPSHOT_SUFFIX}"),
            use_mmap=use_mmap,
            expect_fingerprint=header["ancestor"],
            attach=attach,
        )
        snap = _read_delta(header, segment, ancestor, source)
        if attach:
            snap._mark_stored(str(source), header["fingerprint"])
        return snap

    snap = object.__new__(GraphSnapshot)
    snap.version = header["graph_version"]
    num_entities = header["num_entities"]
    num_nodes = header["num_nodes"]

    node_of: List[object] = _decode_strings(
        segment("entity_offsets"), segment("entity_blob"), num_entities
    )
    node_of += _decode_nodes(
        segment("literal_tags"), segment("literal_offsets"), segment("literal_blob"),
        num_nodes - num_entities, source,
    )
    snap._node_of = tuple(node_of)
    snap._id_of = {node: index for index, node in enumerate(node_of)}
    snap._num_entities = num_entities

    type_ranges: Dict[str, Tuple[int, int]] = {}
    etype_of: List[str] = [""] * num_entities
    for etype, lo, hi in header["types"]:
        if not (0 <= lo <= hi <= num_entities):
            raise StoreFormatError(f"{source}: type range {etype!r} [{lo}, {hi}) is invalid")
        type_ranges[etype] = (lo, hi)
        for index in range(lo, hi):
            etype_of[index] = etype
    snap._type_ranges = type_ranges
    snap._etype_of = tuple(etype_of)

    preds = _decode_strings(
        segment("pred_offsets"), segment("pred_blob"), header["num_predicates"]
    )
    snap._pred_of = tuple(preds)
    snap._pred_ids = {pred: index for index, pred in enumerate(preds)}

    for name, attr in zip(_ARRAY_SEGMENTS, _ARRAY_ATTRS):
        raw = segment(name)
        if len(raw) % 8:
            raise StoreFormatError(f"{source}: segment {name!r} is not an int64 array")
        setattr(snap, attr, raw.cast(_ID))
    if len(snap._fwd_offsets) != num_nodes + 1 or len(snap._und_offsets) != num_nodes + 1:
        raise StoreFormatError(f"{source}: CSR offsets do not match the node count")
    if len(snap._vindex_offsets) != header["num_predicates"] + 1:
        raise StoreFormatError(
            f"{source}: value-index offsets do not match the predicate count"
        )

    snap._num_triples = header["num_triples"]
    snap._reset_lazy()
    if attach:
        snap._mark_stored(str(source), header["fingerprint"])
    return snap


def _read_delta(header: dict, segment, ancestor: GraphSnapshot, source: Path) -> GraphSnapshot:
    """The patched snapshot a delta file's segments describe over *ancestor*."""
    if ancestor._overlay is not None:
        raise StoreFormatError(f"{source}: its ancestor is a delta file, not a canonical one")
    try:
        overlay = header["overlay"]
        state = {
            "preds": overlay["preds"],
            "etypes": overlay["etypes"],
            "dead_preds": overlay["dead_preds"],
            "dead": segment("ov_dead").cast(_ID),
            "row_ids": segment("ov_row_ids").cast(_ID),
            "row_offsets": segment("ov_row_offsets").cast(_ID),
            "rows": segment("ov_rows"),
        }
        state["nodes"] = _decode_nodes(
            segment("ov_node_tags"), segment("ov_node_offsets"), segment("ov_node_blob"),
            len(segment("ov_node_tags")), source,
        )
        if len(state["row_offsets"]) != len(state["row_ids"]) + 1 or (
            8 * state["row_offsets"][-1] != len(state["rows"])
        ):
            raise StoreFormatError(f"{source}: overlay row table does not match its rows")
        return GraphSnapshot._over(
            _Overlay.unpacked(ancestor, state), header["graph_version"], header["num_triples"]
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StoreFormatError(f"{source}: unreadable overlay ({exc!r})") from exc


def snapshot_info(path: Union[str, os.PathLike]) -> Dict[str, object]:
    """The header of the snapshot file at *path*, plus its file size and
    ``kind`` (``"canonical"``, or ``"delta"`` with its ``ancestor``).

    Reads only the preamble and header — never the array segments.
    """
    with _opened(Path(path)) as (_, header, data_start, file_size):
        info = dict(header, path=str(path), file_size=file_size, data_start=data_start)
    info.setdefault("kind", "canonical")
    return info


def verify_snapshot(
    path: Union[str, os.PathLike], graph: Optional[Graph] = None
) -> Dict[str, object]:
    """Fully validate the snapshot file at *path*; returns its header info.

    Checks structure (magic, format version, segment bounds), the payload
    checksum — a delta's and its ancestor's — and that the arrays decode
    into a well-formed snapshot.  With *graph* given, also checks the content
    fingerprint and ``Graph.version`` against the live graph.  Raises a
    :class:`~repro.exceptions.StoreError` subclass on the first failure.
    """
    source = Path(path)
    info = snapshot_info(source)
    data_start = info["data_start"]
    with open(source, "rb") as handle:
        raw = handle.read()
    _check_segments(info, data_start, len(raw), source)
    checksum = 0
    for name in _segment_names(info):
        offset, length = info["segments"][name]
        checksum = zlib.crc32(raw[data_start + offset : data_start + offset + length], checksum)
    if checksum != info["checksum"]:
        raise StoreFormatError(
            f"{source}: segment checksum {checksum:#010x} does not match the "
            f"recorded {info['checksum']:#010x}; the payload is corrupt"
        )
    if info["kind"] == "delta":
        verify_snapshot(source.with_name(f"{info['ancestor']}{SNAPSHOT_SUFFIX}"))
    expect_fingerprint = graph_fingerprint(graph) if graph is not None else None
    expect_version = graph.version if graph is not None else None
    snapshot = read_snapshot(
        source,
        use_mmap=False,
        expect_fingerprint=expect_fingerprint,
        expect_graph_version=expect_version,
        attach=False,
    )
    if snapshot.num_triples != sum(
        1 for _ in snapshot.triples()
    ):  # pragma: no cover - structural invariant
        raise StoreFormatError(f"{source}: triple count does not match the CSR arrays")
    return info


# --------------------------------------------------------------------------- #
# the directory cache
# --------------------------------------------------------------------------- #


class SnapshotStore:
    """A directory of snapshot files keyed by graph content fingerprint.

    ``store.save(snapshot, graph=g)`` writes ``<root>/<fingerprint>.snap``
    (atomically, deterministically) and marks the in-memory snapshot as
    store-backed, so pickling it — e.g. into a process pool's shared
    payload — ships the file path instead of the arrays.
    ``store.load(graph)`` fingerprints the live graph, mmap-loads the
    matching file and validates the recorded fingerprint and
    ``Graph.version``; any mismatch raises a typed
    :class:`~repro.exceptions.StoreError` (callers fall back to a build).
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self._root = Path(root)
        # service/session observability: cumulative counters of this store
        # handle (per process — the file cache itself is shared machine-wide)
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.builds = 0
        self.patches = 0
        self.patched_segments_reused = 0
        self.patched_segments_rewritten = 0
        # per-fingerprint build coordination: concurrent sessions sharing one
        # store handle serialize the miss path per graph, so N tenants racing
        # on a cold graph pay for exactly one physical build + write
        self._locks_guard = threading.Lock()
        self._build_locks: Dict[str, threading.Lock] = {}

    def __getstate__(self) -> Dict[str, object]:
        # stores travel inside MatchConfig; locks don't pickle and counters
        # are per-handle observability, so a copy restarts both
        return {"root": str(self._root)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(state["root"])  # type: ignore[misc]

    @property
    def root(self) -> Path:
        return self._root

    def metrics(self) -> Dict[str, int]:
        """Cumulative load/save counters of this store handle."""
        names = ("hits", "misses", "saves", "builds", "patches",
                 "patched_segments_reused", "patched_segments_rewritten")
        return {name: getattr(self, name) for name in names}

    def _build_lock(self, fingerprint: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._build_locks.get(fingerprint)
            if lock is None:
                lock = self._build_locks[fingerprint] = threading.Lock()
            return lock

    def get_or_build(
        self,
        graph: Graph,
        build: Callable[[], GraphSnapshot],
        *,
        fingerprint: Optional[str] = None,
        timed: Optional[Callable[[str, Callable[[], object]], object]] = None,
        save_failed: Optional[Callable[[], None]] = None,
    ) -> Tuple[GraphSnapshot, bool]:
        """The stored snapshot for *graph*, building-and-saving on a cold miss.

        Returns ``(snapshot, loaded)`` where *loaded* says whether the
        snapshot came off the store (``True``) or from *build* (``False``).
        The miss path is serialized per fingerprint, so concurrent callers
        racing on the same cold graph perform **exactly one** build: the
        first caller builds and writes, the rest block briefly and then load
        the freshly written file.  Any :class:`~repro.exceptions.StoreError`
        on the load path falls back to a build; an unwritable store never
        fails the call, and *save_failed*, when given, is called instead
        (the session artifact cache counts it).

        *timed* is an optional ``timed(phase, thunk)`` hook (the session
        artifact cache passes its phase timer) wrapping the load / save
        steps under the phases ``snapshot_store_load`` /
        ``snapshot_store_save``.
        """
        if timed is None:
            timed = lambda _phase, thunk: thunk()  # noqa: E731
        if fingerprint is None:
            fingerprint = timed(
                "snapshot_store_load", lambda: fingerprint_of(graph)
            )
        with self._build_lock(fingerprint):
            try:
                loaded = timed(
                    "snapshot_store_load",
                    lambda: self.load(graph, fingerprint=fingerprint, count=False),
                )
            except StoreError:
                loaded = None
            if loaded is not None:
                self.hits += 1
                return loaded, True
            self.misses += 1
            snapshot = build()
            self.builds += 1
            try:
                timed(
                    "snapshot_store_save",
                    lambda: self.save(snapshot, fingerprint=fingerprint),
                )
            except (StoreError, OSError):
                if save_failed is not None:
                    save_failed()
            return snapshot, False

    def path_for(self, fingerprint: str) -> Path:
        """The file a snapshot with *fingerprint* is stored at."""
        return self._root / f"{fingerprint}{SNAPSHOT_SUFFIX}"

    def save(
        self,
        snapshot: GraphSnapshot,
        *,
        graph: Optional[Graph] = None,
        fingerprint: Optional[str] = None,
    ) -> Path:
        """Write *snapshot* into the store; returns the file path.

        The fingerprint is computed from *graph* when given (cheaper reads),
        else from the snapshot's own read surface — both hash the same
        content, so the two keys are identical by construction.
        """
        if fingerprint is None:
            fingerprint = fingerprint_of(snapshot if graph is None else graph)
        self._root.mkdir(parents=True, exist_ok=True)
        path = write_snapshot(snapshot, self.path_for(fingerprint), fingerprint=fingerprint)
        snapshot._mark_stored(str(path), fingerprint)
        self.saves += 1
        return path

    def patch(
        self,
        snapshot: GraphSnapshot,
        *,
        base: Union[GraphSnapshot, str, None],
        fingerprint: Optional[str] = None,
        prune_base: bool = False,
    ) -> Path:
        """Save a patched *snapshot* as a delta file; returns the file path.

        What is written is the snapshot's overlay, cumulative since its
        canonical ancestor, under the new fingerprint: bytes bounded by the
        overlay, never by the graph.  The ancestor's canonical file must be
        in this store for the delta to load, so it is saved first if it is
        not.  The store is content-addressed: a file already under the new
        fingerprint holds this content and is kept (it may be a canonical
        file that other deltas name as their ancestor; a delta never
        replaces one), and a canonical *snapshot* is saved whole.

        *base* is the snapshot this one was patched from (or its bare
        fingerprint).  With ``prune_base=True`` its file is unlinked after
        the write if it is a superseded delta (streaming ingest would
        otherwise leave one file per window behind); a canonical file is
        never unlinked here.
        """
        if fingerprint is None:
            fingerprint = fingerprint_of(snapshot)
        if isinstance(base, GraphSnapshot):
            base = base.store_fingerprint
        base_path = self.path_for(base) if base else None
        if snapshot._overlay is not None:
            ancestor = snapshot._overlay.base
            ancestor_fingerprint = ancestor.store_fingerprint or fingerprint_of(ancestor)
            if not self.contains(ancestor_fingerprint):
                self.save(ancestor, fingerprint=ancestor_fingerprint)
        path = self.path_for(fingerprint)
        if path.is_file():  # also the graph that came back to its ancestor's content
            snapshot._mark_stored(str(path), fingerprint)
            return path
        if snapshot._overlay is None:
            return self.save(snapshot, fingerprint=fingerprint)
        _write_delta(snapshot, path, fingerprint=fingerprint, ancestor=ancestor_fingerprint)
        snapshot._mark_stored(str(path), fingerprint)
        self.patches += 1
        self.patched_segments_reused += len(_ALL_SEGMENTS)  # the ancestor's, untouched
        self.patched_segments_rewritten += len(_DELTA_SEGMENTS)
        if prune_base and base_path is not None:
            try:
                if snapshot_info(base_path)["kind"] == "delta":
                    base_path.unlink()
            except (StoreError, OSError):
                pass
        return path

    def load(
        self,
        graph: Graph,
        *,
        fingerprint: Optional[str] = None,
        count: bool = True,
    ) -> GraphSnapshot:
        """The stored snapshot matching *graph*, mmap-attached.

        Raises :class:`~repro.exceptions.StoreMissError` when no file exists
        for the graph's fingerprint and :class:`~repro.exceptions.StoreError`
        subclasses for unreadable or stale files.  Pass *fingerprint* when
        the caller has already fingerprinted the graph.  ``count=False``
        leaves the hit/miss counters to the caller (:meth:`get_or_build`
        classifies its own outcomes).
        """
        if fingerprint is None:
            fingerprint = fingerprint_of(graph)
        # The fingerprint fully determines the compiled arrays, but not
        # Graph.version: a mutate-then-undo sequence returns to the same
        # content at a higher version.  Accept any file with the right
        # fingerprint and rebase its version onto the live graph's, so
        # journal-delta consumers see a current snapshot.
        try:
            snapshot = self.load_fingerprint(fingerprint)
        except StoreError:
            if count:
                self.misses += 1
            raise
        snapshot.version = graph.version
        if count:
            self.hits += 1
        return snapshot

    def load_fingerprint(self, fingerprint: str) -> GraphSnapshot:
        """Load a stored snapshot by fingerprint (no live graph to check)."""
        return read_snapshot(self.path_for(fingerprint), expect_fingerprint=fingerprint)

    def contains(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).is_file()

    def __contains__(self, fingerprint: object) -> bool:
        return isinstance(fingerprint, str) and self.contains(fingerprint)

    def fingerprints(self) -> List[str]:
        """The fingerprints of every stored snapshot (sorted)."""
        if not self._root.is_dir():
            return []
        return sorted(
            entry.name[: -len(SNAPSHOT_SUFFIX)]
            for entry in self._root.iterdir()
            if entry.name.endswith(SNAPSHOT_SUFFIX)
        )

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __str__(self) -> str:
        return str(self._root)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SnapshotStore({str(self._root)!r}, entries={len(self)})"


def as_snapshot_store(
    value: Union[None, str, os.PathLike, "SnapshotStore"]
) -> Optional["SnapshotStore"]:
    """Coerce a configuration value (path or store) into a store, or None."""
    if value is None or isinstance(value, SnapshotStore):
        return value
    return SnapshotStore(value)
