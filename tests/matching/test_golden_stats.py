"""Golden statistics: the paper-facing numbers of all six backends, pinned.

``golden_stats.json`` holds, per scenario and backend, the identified
classes, every :class:`EMStatistics` counter, the simulated seconds and the
cost breakdown (Fig. 8 / Table 2 are drawn from exactly these).  They are
deterministic functions of the input, so a performance change that shifts
any of them is a behaviour change and fails here.

The fixture was recorded at the commit *before* the solve-path rewrite of
PR 15.  Re-record only when a change is meant to move the numbers::

    PYTHONPATH=src python tests/matching/test_golden_stats.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.api.session import MatchSession
from repro.datasets.business import business_dataset
from repro.datasets.music import music_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.matching import ALGORITHMS

GOLDEN_PATH = Path(__file__).with_name("golden_stats.json")


def _recursive():
    dataset = synthetic_dataset(
        num_keys=6, chain_length=3, radius=2, entities_per_type=6, scale=2, seed=7
    )
    assert any(key.is_recursive for key in dataset.keys)
    return dataset.graph, dataset.keys


def _quadratic():
    dataset = synthetic_dataset(
        num_keys=6, chain_length=2, radius=2, entities_per_type=5, seed=13
    )
    return dataset.graph, dataset.keys


#: scenario name → (dataset factory, blocking mode)
SCENARIOS = {
    "music": (music_dataset, "auto"),
    # the one example whose forks exceed EMOptVC's fan-out budget, so EMVC and
    # EMOptVC (deferred forks, prioritized propagation) report different numbers
    "business": (business_dataset, "auto"),
    "synthetic_recursive": (_recursive, "auto"),
    "synthetic_blocking_off": (_quadratic, "off"),
}


def observe(scenario: str) -> dict:
    """Everything the paper's figures read, for every backend, on *scenario*."""
    factory, blocking = SCENARIOS[scenario]
    graph, keys = factory()
    session = MatchSession(graph).with_keys(keys)
    observed = {}
    for algorithm in ALGORITHMS:
        result = session.run(algorithm, blocking=blocking)
        observed[algorithm] = {
            "classes": sorted(sorted(cls) for cls in result.eq.nontrivial_classes()),
            "stats": result.stats.as_dict(),
            "simulated_seconds": result.simulated_seconds,
            "cost_breakdown": dict(sorted(result.cost_breakdown.items())),
        }
    return observed


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_scenario_and_backend(golden):
    assert set(golden) == set(SCENARIOS)
    for per_backend in golden.values():
        assert set(per_backend) == set(ALGORITHMS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_backends_reproduce_the_golden_numbers(golden, scenario):
    observed = observe(scenario)
    for algorithm in ALGORITHMS:
        # field by field, so a failure names the number that moved; floats
        # are compared exactly (JSON round-trips a float's repr)
        for field, expected in golden[scenario][algorithm].items():
            assert observed[algorithm][field] == expected, (scenario, algorithm, field)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN_PATH.write_text(
        json.dumps({name: observe(name) for name in sorted(SCENARIOS)}, indent=1, sort_keys=True)
        + "\n"
    )
