"""Shared fixtures: the paper's examples and small generated workloads."""

from __future__ import annotations

import pytest

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


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "provokes_fallbacks: the test makes a snapshot patch or a store write fail on purpose",
    )


@pytest.fixture(autouse=True)
def no_silent_snapshot_fallbacks(request, monkeypatch):
    """Every artifact cache a test creates ends with no refused patch and no
    failed store write.

    Both are answered with a correct rebuild, so a defect in the delta path
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
            assert (info.snapshot_patch_fallbacks, info.store_write_failures) == (0, 0), info


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
