"""Every ``threading.Lock()`` / ``RLock()`` construction site in ``src/repro``.

A lock added or removed anywhere shows up here as a diff: it has to find
its place in DESIGN.md's *Per-graph lock order* (or join the bookkeeping
leaves) before this table is updated.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: module (relative to ``src/repro``) -> lock construction sites: 16 in 10
LOCK_SITES = {
    "api/events.py": 1,
    "api/session.py": 1,
    "matching/artifacts.py": 1,
    "service/ingest.py": 1,
    "service/queue.py": 2,
    "service/registry.py": 3,
    "service/server.py": 2,
    "service/wal.py": 1,
    "storage/store.py": 2,
    "vertexcentric/engine.py": 2,
}


def _is_lock_constructor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in ("Lock", "RLock")


def lock_sites():
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        count = sum(map(_is_lock_constructor, ast.walk(tree)))
        if count:
            sites[path.relative_to(SRC).as_posix()] = count
    return sites


def test_the_lock_inventory_is_pinned():
    assert lock_sites() == LOCK_SITES, (
        "the lock construction sites changed; place the new or removed lock "
        "in DESIGN.md's 'Per-graph lock order' (or among the bookkeeping "
        "leaves) and then update LOCK_SITES"
    )
