"""The bug museum's meta-test: every mutant of ``tests/mutants`` is killed.

Each mutant's killers run in a subprocess with the mutant applied
(``pytest --mutant NAME``).  The mutant is killed when a killer fails, or
when the run outlives its timeout (a deadlock counts as a kill).  When every
killer passes the mutant survived, and so does the bug it stands for: this
test fails.  Any other outcome (a killer id that no longer collects, a
mutant that no longer applies) fails it too, so the museum cannot rot into
kills that mean nothing.

Marked ``mutants``: tier-1 deselects it (``tests/conftest.py``), and its own
CI job runs ``pytest -m mutants``.  On one CPU the whole museum takes under
a minute.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
#: seconds a mutant's killers may run before the mutant counts as killed
TIMEOUT = 120


@pytest.mark.mutants
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--mutant", name, *MUTANTS[name].killers,
    ]
    try:
        run = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return
    assert run.returncode != 0, f"{name} survived: {MUTANTS[name].bug}"
    # a killer failed; an error (a twin that no longer applies, a killer id
    # that no longer collects) is no kill
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    assert run.returncode == 1 and " error" not in summary, run.stdout[-2000:] + run.stderr[-2000:]
