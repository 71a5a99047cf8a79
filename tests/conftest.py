"""Shared fixtures: the paper's examples and small generated workloads,
the hypothesis profiles and the reach tally of the fuzzed properties."""

from __future__ import annotations

import pytest
from hypothesis import Phase, is_hypothesis_test, settings

from repro.datasets.business import (
    EXPECTED_ADDRESS_PAIRS,
    EXPECTED_IDENTIFIED_PAIRS as BUSINESS_PAIRS,
    address_dataset,
    business_dataset,
)
from repro.datasets.knowledge import fusion_example_graph, knowledge_dataset
from repro.datasets.music import EXPECTED_IDENTIFIED_PAIRS as MUSIC_PAIRS, music_dataset
from repro.datasets.social import social_dataset
from repro.datasets.synthetic import synthetic_dataset
from repro.matching.artifacts import SessionArtifacts

from tests.reach import TALLY

# Tier-1 replays the same examples on every run, so a reach count and any
# failure reproduce exactly.  ``--hypothesis-profile=explore`` (its own CI
# job) draws fresh examples instead, ten times as many per property.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
# under ``--mutant`` a failure is all that counts: no shrinking
settings.register_profile(
    "mutant", derandomize=True, database=None, phases=(Phase.explicit, Phase.generate)
)
settings.load_profile("tier1")
EXPLORE_SCALE = 10


def pytest_addoption(parser):
    parser.addoption(
        "--mutant",
        metavar="NAME",
        help="run with the named mutant of the bug museum applied (tests/mutants)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "provokes_fallbacks: the test makes a store write fail on purpose",
    )
    config.addinivalue_line(
        "markers",
        "mutants: the bug museum's meta-test, run only when selected (-m mutants)",
    )
    if config.getoption("--mutant"):
        settings.load_profile("mutant")
    config.addinivalue_line(
        "markers",
        "reaches(label, at_least): the property's examples must reach the transition "
        "*label* (tests.reach.reach) at least *at_least* times",
    )


def pytest_collection_modifyitems(config, items):
    # the bug museum runs a subprocess per mutant: only when asked for
    if "mutants" not in config.getoption("markexpr", ""):
        museum = [item for item in items if item.get_closest_marker("mutants")]
        if museum:
            config.hook.pytest_deselected(items=museum)
            items[:] = [item for item in items if not item.get_closest_marker("mutants")]
    if config.getoption("hypothesis_profile", None) != "explore":
        return
    # Once per test function: the items of a parametrized test share one.
    # A test's own @settings beat any profile, and hypothesis keeps them in a
    # private attribute; a release without it stops this run here instead of
    # letting it explore at 1 x unnoticed.
    tests = {
        id(item.obj): item.obj
        for item in items
        if is_hypothesis_test(getattr(item, "obj", None))
    }
    for test in tests.values():
        chosen = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            chosen, max_examples=EXPLORE_SCALE * chosen.max_examples
        )


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """Fail a ``reaches``-marked test whose examples passed without reaching
    the transitions it names often enough."""
    targets = [mark.args for mark in pyfuncitem.iter_markers("reaches")]
    TALLY.clear()
    result = yield
    for label, at_least in targets:
        if TALLY[label] < at_least:
            pytest.fail(
                f"reached {label!r} {TALLY[label]} times, fewer than the {at_least} "
                f"this property exists for",
                pytrace=False,
            )
    return result


@pytest.fixture(autouse=True, scope="session")
def mutant(request):
    """The ``--mutant`` named, applied for the whole run."""
    name = request.config.getoption("--mutant")
    if name is None:
        yield None
        return
    from tests.mutants import MUTANTS

    with pytest.MonkeyPatch.context() as patch:
        MUTANTS[name].apply(patch)
        yield name


@pytest.fixture(autouse=True)
def no_silent_snapshot_fallbacks(request, monkeypatch):
    """Every artifact cache a test creates ends with no failed store write.

    One is answered with a correct rebuild, so a defect in the delta path
    would otherwise leave every result right, the suite green and the gain
    gone.  A test that provokes one on purpose is marked
    ``provokes_fallbacks``.
    """
    caches = []
    construct = SessionArtifacts.__init__

    def tracked(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        caches.append(self)

    monkeypatch.setattr(SessionArtifacts, "__init__", tracked)
    yield
    if request.node.get_closest_marker("provokes_fallbacks") is None:
        for cache in caches:
            info = cache.cache_info()
            assert info.store_write_failures == 0, info


@pytest.fixture
def music():
    """The music example (G1, Σ1) with its expected identified pairs."""
    graph, keys = music_dataset()
    return graph, keys, set(MUSIC_PAIRS)


@pytest.fixture
def business():
    """The business example (G2, Σ2) with its expected identified pairs."""
    graph, keys = business_dataset()
    return graph, keys, set(BUSINESS_PAIRS)


@pytest.fixture
def address():
    """The UK address example (key Q6) with its expected identified pairs."""
    graph, keys = address_dataset()
    return graph, keys, set(EXPECTED_ADDRESS_PAIRS)


@pytest.fixture
def small_synthetic():
    """A small synthetic dataset with a 2-level dependency chain."""
    return synthetic_dataset(
        num_keys=6, chain_length=2, radius=2, entities_per_type=5, seed=13
    )


@pytest.fixture
def deep_synthetic():
    """A synthetic dataset with a 3-level dependency chain and radius 3."""
    return synthetic_dataset(
        num_keys=6, chain_length=3, radius=3, entities_per_type=4, seed=17
    )


@pytest.fixture
def small_social():
    """A small Google+-like dataset."""
    return social_dataset(scale=0.5, chain_length=2, radius=2, seed=19)


@pytest.fixture
def small_knowledge():
    """A small DBpedia-like dataset."""
    return knowledge_dataset(scale=0.5, chain_length=2, radius=2, seed=29)


@pytest.fixture
def fusion_example():
    """The hand-built Fig. 7 knowledge-fusion scenario."""
    graph, keys, expected = fusion_example_graph()
    return graph, keys, set(expected)
