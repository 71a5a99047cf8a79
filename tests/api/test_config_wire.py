"""Wire serialization of MatchConfig: strict, round-trippable JSON."""

from __future__ import annotations

import json

import pytest

from repro.api.config import MatchConfig
from repro.exceptions import ConfigError


def test_round_trip_preserves_every_field(tmp_path):
    config = MatchConfig(
        algorithm="EMOptVC",
        processors=8,
        executor="thread",
        workers=3,
        snapshot_store=tmp_path / "store",
        incremental=True,
        options={"fanout": 4},
    )
    rebuilt = MatchConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt.algorithm == "EMOptVC"
    assert rebuilt.processors == 8
    assert rebuilt.executor == "thread" and rebuilt.workers == 3
    assert rebuilt.snapshot_store == str(tmp_path / "store")  # path, not handle
    assert rebuilt.incremental is True
    assert rebuilt.options == {"fanout": 4}


def test_defaults_survive_an_empty_payload():
    config = MatchConfig.from_dict({})
    assert config == MatchConfig()


def test_unknown_fields_are_rejected():
    with pytest.raises(ConfigError, match="unknown config field"):
        MatchConfig.from_dict({"algorithm": "chase", "procesors": 2})


def test_ill_typed_options_are_rejected():
    with pytest.raises(ConfigError, match="options must be a mapping"):
        MatchConfig.from_dict({"options": [1, 2]})
    with pytest.raises(ConfigError, match="algorithm must be a string"):
        MatchConfig.from_dict({"algorithm": 7})


def test_the_default_blocking_is_auto_and_the_other_modes_still_parse():
    assert MatchConfig().blocking == "auto"
    assert MatchConfig.from_dict({"algorithm": "chase"}).blocking == "auto"
    for mode in ("off", "auto", "force"):
        assert MatchConfig.from_dict({"blocking": mode}).blocking == mode
    with pytest.raises(ConfigError, match="unknown blocking mode"):
        MatchConfig.from_dict({"blocking": "maybe"})


def test_wire_requests_without_a_blocking_field_resolve_to_auto():
    from repro.service import wire

    _graph, config, _wait, _timeout = wire.parse_match_request({"graph": "g"})
    assert config.blocking == "auto"
    assert wire.parse_ingest_request({"ops": []})[1].blocking == "auto"
    for mode in ("off", "force"):
        parsed = wire.parse_ingest_request({"ops": [], "blocking": mode})
        assert parsed[1].blocking == mode


def test_auto_falls_back_on_a_backend_without_the_blocking_capability():
    """``auto`` degrades wherever it cannot block — per uncertifiable type
    inside a backend, and wholesale on a backend that cannot block at all;
    ``force`` is the strict mode."""
    from repro.api.registry import AlgorithmRegistry, register_algorithm
    from repro.datasets.music import music_dataset
    from repro.matching import chase_as_result

    local = AlgorithmRegistry()

    @register_algorithm("Plain", family="test", registry=local)
    def plain(graph, keys, *, processors=4, artifacts=None, observer=None):
        return chase_as_result(graph, keys)

    graph, keys = music_dataset()
    spec, _options = MatchConfig(algorithm="Plain").resolve(local)
    assert spec.run(graph, keys, blocking="auto").pairs() == plain(graph, keys).pairs()
    with pytest.raises(ConfigError, match="does not support blocked"):
        MatchConfig(algorithm="Plain", blocking="force").resolve(local)
    with pytest.raises(ConfigError, match="does not support blocked"):
        spec.run(graph, keys, blocking="force")
