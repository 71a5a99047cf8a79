"""Tier-1 smoke test of the spine benchmark (``--smoke`` sizing, a few seconds).

Collected by the repository's plain ``pytest`` run.  It checks the parts a
later PR could break without noticing: every metric BENCHMARK.json names is
still measured, wrong outputs are counted, the span file is a tree, the
generators are deterministic, and ``compare.py`` applies the bounds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from spinebench import SPINE_DIR, batch, driver, gen
from spinebench.harness import Params
from spinebench.schema import WORKLOADS, Outcome, load_benchmark_json
from spinebench.stats import TooFewSamples, percentile, tail
from spinebench.trace import Tracer, check_tree, read_spans

SPEC = load_benchmark_json()


@pytest.fixture(scope="module")
def traced_outcomes():
    """One traced smoke run of every workload, in this process."""
    return {
        workload: driver.run_here(workload, seed=5, seconds=driver.SMOKE_SECONDS,
                                  smoke=True, traced=True)
        for workload in WORKLOADS
    }


def test_benchmark_json_names_the_four_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_every_metric_is_measured_and_nothing_fails(traced_outcomes):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    measured_layers = set()
    for workload, outcome in traced_outcomes.items():
        assert outcome.attempted > 0
        assert outcome.failed == 0, outcome.failures
        assert set(outcome.end_to_end) == end_to_end, workload
        assert all(m.value > 0 for m in outcome.end_to_end.values()), workload
        measured_layers |= set(outcome.per_layer)
    assert measured_layers == per_layer


def test_span_files_are_trees(traced_outcomes):
    for workload, outcome in traced_outcomes.items():
        spans = read_spans(Path(outcome.trace_file))
        assert spans, workload
        assert check_tree(spans) == [], workload
        assert any(span["parent"] is not None for span in spans), workload
        assert all(span["workload"] == workload for span in spans)


def test_cli_prints_every_end_to_end_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, str(SPINE_DIR / "run.py"), "--workload",
         "batch_warm_backends", "--seed", "5", "--trace", "0", "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.startswith(f"{metric['name']} = ") and f" {metric['unit']}" in line
            for line in lines
        ), metric["name"]
    assert any("solve_chase_ms = " in line for line in lines)
    assert any(line.startswith("failed_share = 0 ratio") for line in lines)


def test_a_wrong_expected_result_is_counted_as_failed(tmp_path):
    params = Params(seed=5, seconds=0.1, smoke=True, traced=False, workdir=tmp_path)
    state = batch._warm_setup(params)
    state.reference = set(state.reference) | {("no_such", "pair")}
    outcome = Outcome("batch_warm_backends")
    batch._warm_loop(state, params, Tracer("batch_warm_backends", enabled=False), outcome)
    assert outcome.attempted > 0
    assert outcome.failed == outcome.attempted


def test_generators_are_functions_of_the_seed():
    def material(seed):
        graph = gen.hot_dataset(seed, smoke=True).graph
        ops = gen.take(gen.op_stream(graph, seed), 400)
        schedule = gen.request_schedule(seed, 2, 200)
        return gen.ops_jsonl(ops), json.dumps(schedule, sort_keys=True).encode()

    assert material(3) == material(3)
    ops_a, schedule_a = material(3)
    ops_b, schedule_b = material(4)
    assert ops_a != ops_b and schedule_a != schedule_b


def test_ingest_windows_only_name_entities_that_exist():
    graph = gen.hot_dataset(3, smoke=True).graph
    streams = {
        "op_stream": gen.take(gen.op_stream(graph, 3), 2000),
        "hot_windows": [op for window in gen.hot_windows(graph, 3, 100) for op in window],
    }
    for name, ops in streams.items():
        known = set(graph.entity_ids())
        for op in ops:
            if op["op"] == "add_entity":
                known.add(op["id"])
                continue
            assert op.get("subject", op.get("id")) in known, (name, op)
            if op["op"] == "add_edge":
                assert op["object"] in known, (name, op)


def test_percentile_returns_its_sample_count_and_refuses_thin_tails():
    samples = list(range(1, 201))
    assert percentile(samples, 0.95)[:2] == (190, 200)
    assert percentile(samples, 0.5)[:2] == (100, 200)
    with pytest.raises(TooFewSamples):
        percentile(samples[:199], 0.95)
    assert percentile([7.0], 0.5)[:2] == (7.0, 1)
    estimate, used = tail(list(range(1, 41)), 0.95)
    assert used == 0.75 and estimate[:2] == (30, 40)


def _runset(path, values, failed=0):
    runs = [
        {"workload": "batch_cold", "seed": i, "trace": 0, "attempted": 10,
         "failed": failed, "correct": failed == 0,
         "metrics": {"primary_ms": {"value": value, "unit": "ms"}}}
        for i, value in enumerate(values)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_applies_bound_direction_and_spread(tmp_path, capsys):
    import compare

    parent = _runset(tmp_path / "parent.json", [100.0, 101.0, 99.0, 100.5, 100.2])
    same = _runset(tmp_path / "same.json", [100.4, 100.9, 99.5, 100.0, 101.0])
    slower = _runset(tmp_path / "slower.json", [140.0, 141.0, 139.0, 140.5, 140.2])
    noisy = _runset(tmp_path / "noisy.json", [80.0, 130.0, 100.0, 60.0, 140.0])
    wrong = _runset(tmp_path / "wrong.json", [100.0, 101.0, 99.0, 100.5, 100.2], failed=1)

    assert compare.main([parent, same]) == 0
    assert "primary_ms@batch_cold (match_s)" in capsys.readouterr().out
    assert compare.main([parent, slower]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([parent, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([parent, noisy, "--strict"]) == 1
    assert compare.main([parent, wrong]) == 1
