"""Every declared backend option reaches its matcher.

A backend declares each knob once, as an ``OptionSpec`` on its matcher
class; the base turns the declaration into an attribute of the same name.
These tests pass a non-default value for every declared option through both
public entry points (``match_entities`` and ``MatchSession.run``) and read
it back off the matcher that solved, so a knob that stops reaching its
matcher — or a default that drifts from its spec — fails here.
"""

from __future__ import annotations

import importlib

import pytest

from repro.api.registry import algorithm_specs
from repro.api.session import MatchSession
from repro.datasets.music import music_dataset
from repro.exceptions import ConfigError
from repro.matching import EntityMatcher, chase_as_result, match_entities

#: one valid non-default value per declared option name
NON_DEFAULT = {
    "fanout": 2,
    "prioritize": False,
    "reduce_neighborhoods": False,
    "partitioner": "chunk",
}

CLASS_BACKENDS = [
    spec for spec in algorithm_specs()
    if isinstance(getattr(spec.runner, "__self__", None), type)
    and issubclass(spec.runner.__self__, EntityMatcher)
]

DECLARED = [
    pytest.param(spec.name, option, id=f"{spec.name}-{option.name}")
    for spec in CLASS_BACKENDS
    for option in spec.options
]


@pytest.fixture
def solved(monkeypatch):
    """Patch every backend's ``_solve`` to record the matcher it ran on."""
    matchers = []

    def capture(self, executor):
        matchers.append(self)
        return chase_as_result(self.graph, self.keys)

    for spec in CLASS_BACKENDS:
        monkeypatch.setattr(spec.runner.__self__, "_solve", capture)
    return matchers


def _entry_points(name, options):
    graph, keys = music_dataset()
    yield match_entities(graph, keys, name, **options)
    yield MatchSession(graph).with_keys(keys).run(name, **options)


def test_every_built_in_backend_is_a_matcher_class():
    assert {spec.name for spec in CLASS_BACKENDS} == {
        "chase", "EMMR", "EMVF2MR", "EMOptMR", "EMVC", "EMOptVC"
    }
    for spec in CLASS_BACKENDS:
        assert spec.options == spec.runner.__self__.options


def test_every_declared_option_has_a_non_default_probe():
    for spec in CLASS_BACKENDS:
        for option in spec.options:
            assert NON_DEFAULT[option.name] != option.default, option.name


@pytest.mark.parametrize("name, option", DECLARED)
def test_a_passed_option_reaches_the_matcher(solved, name, option):
    value = NON_DEFAULT[option.name]
    for _ in _entry_points(name, {option.name: value}):
        assert getattr(solved.pop(), option.name) == value
    assert not solved


@pytest.mark.parametrize("name, option", DECLARED)
def test_an_omitted_option_takes_the_spec_default(solved, name, option):
    for _ in _entry_points(name, {}):
        assert getattr(solved.pop(), option.name) == option.default
    assert not solved


@pytest.mark.parametrize("name", [spec.name for spec in CLASS_BACKENDS])
def test_an_undeclared_option_is_refused_before_any_solve(solved, name):
    graph, keys = music_dataset()
    with pytest.raises(ConfigError, match="does not accept option 'bogus'"):
        match_entities(graph, keys, name, bogus=1)
    with pytest.raises(ConfigError, match="does not accept option 'bogus'"):
        MatchSession(graph).with_keys(keys).run(name, bogus=1)
    assert not solved


def test_fanout_below_its_bound_is_a_config_error(solved):
    graph, keys = music_dataset()
    for fanout in (0, -3):
        with pytest.raises(ConfigError, match="'fanout' must be >= 1"):
            match_entities(graph, keys, "EMOptVC", fanout=fanout)
    assert not solved


def test_the_vertex_program_gets_the_declared_knobs(monkeypatch):
    """``fanout`` / ``prioritize`` reach ``EvalVCProgram``, not just the matcher."""
    # the module, not the em_vc() function the package re-exports under its name
    em_vc = importlib.import_module("repro.matching.em_vc")
    seen = []

    class Recording(em_vc.EvalVCProgram):
        def __init__(self, *args, **kwargs):
            seen.append((kwargs["max_fanout"], kwargs["prioritize"]))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(em_vc, "EvalVCProgram", Recording)
    graph, keys = music_dataset()
    match_entities(graph, keys, "EMOptVC", fanout=2, prioritize=False)
    match_entities(graph, keys, "EMOptVC")
    match_entities(graph, keys, "EMVC")
    assert seen == [(2, False), (4, True), (None, False)]
