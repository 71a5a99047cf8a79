"""Tests of the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.parser import save_graph, save_keys
from repro.datasets.music import music_dataset


_PARTITIONER = {
    "default": "hash",
    "description": "vertex partitioning strategy for partitioned execution "
    "(hash/chunk/fragment)",
    "name": "partitioner",
    "type": "str",
}

#: ``repro algorithms --json`` / ``GET /algorithms``, literally.
PINNED_ALGORITHM_CATALOG = [
    {
        "capabilities": [
            "blocking", "executors", "incremental", "incremental-eq", "parallel", "rounds",
        ],
        "description": "MapReduce algorithm with the guided EvalMR check (Fig. 4)",
        "family": "mapreduce",
        "name": "EMMR",
        "options": [],
    },
    {
        "capabilities": ["blocking", "executors", "incremental", "parallel", "rounds"],
        "description": "MapReduce baseline enumerating all matches (no early exit)",
        "family": "mapreduce",
        "name": "EMVF2MR",
        "options": [],
    },
    {
        "capabilities": [
            "blocking", "executors", "incremental", "incremental-check",
            "pairing-filter", "parallel", "rounds",
        ],
        "description": "EMMR + pairing filter, reduced neighbourhoods, incremental checking",
        "family": "mapreduce",
        "name": "EMOptMR",
        "options": [
            {
                "default": True,
                "description": "shrink d-neighbourhoods to pairing-supported nodes "
                "(Section 4.2)",
                "name": "reduce_neighborhoods",
                "type": "bool",
            }
        ],
    },
    {
        "capabilities": ["asynchronous", "blocking", "executors", "incremental", "parallel"],
        "description": "vertex-centric asynchronous algorithm over the product graph",
        "family": "vertex-centric",
        "name": "EMVC",
        "options": [_PARTITIONER],
    },
    {
        "capabilities": [
            "asynchronous", "blocking", "bounded-messages", "executors",
            "incremental", "parallel", "prioritized",
        ],
        "description": "EMVC + bounded messages and prioritized propagation",
        "family": "vertex-centric",
        "name": "EMOptVC",
        "options": [
            {
                "default": 4,
                "description": "bounded-message fan-out budget k (Section 5.2)",
                "name": "fanout",
                "type": "int",
            },
            {
                "default": True,
                "description": "prioritized propagation of flag messages",
                "name": "prioritize",
                "type": "bool",
            },
            _PARTITIONER,
        ],
    },
    {
        "capabilities": ["blocking", "incremental", "reference"],
        "description": "sequential chase, the reference implementation (Section 3)",
        "family": "sequential",
        "name": "chase",
        "options": [],
    },
]


@pytest.fixture
def music_files(tmp_path):
    graph, keys = music_dataset()
    graph_path = tmp_path / "music.graph"
    keys_path = tmp_path / "music.keys"
    save_graph(graph, graph_path)
    save_keys(keys, keys_path)
    return str(graph_path), str(keys_path)


class TestMatchCommand:
    def test_match_reports_identified_pairs(self, music_files, capsys):
        graph_path, keys_path = music_files
        exit_code = main(
            ["match", "--graph", graph_path, "--keys", keys_path, "--algorithm", "EMOptVC"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "alb1 == alb2" in output
        assert "art1 == art2" in output

    def test_match_with_chase_algorithm(self, music_files, capsys):
        graph_path, keys_path = music_files
        assert main(["match", "--graph", graph_path, "--keys", keys_path, "--algorithm", "chase"]) == 0
        assert "identified" in capsys.readouterr().out

    def test_match_incremental_falls_back_with_provenance(self, music_files, capsys):
        # a one-shot CLI run has no previous result: --incremental silently
        # falls back to a full run and --profile says so
        graph_path, keys_path = music_files
        exit_code = main(
            ["match", "--graph", graph_path, "--keys", keys_path,
             "--algorithm", "chase", "--incremental", "--profile"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "alb1 == alb2" in output
        assert "delta provenance" in output
        assert "no previous result" in output

    def test_missing_file_reports_error(self, tmp_path, capsys):
        exit_code = main(
            ["match", "--graph", str(tmp_path / "nope.graph"), "--keys", str(tmp_path / "nope.keys")]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_match_runs_on_real_executors(self, music_files, capsys, executor):
        graph_path, keys_path = music_files
        exit_code = main(
            [
                "match",
                "--graph", graph_path,
                "--keys", keys_path,
                "--algorithm", "EMOptMR",
                "--executor", executor,
                "--workers", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert f"executor       : {executor} (2 workers)" in output
        assert "wall time" in output
        assert "alb1 == alb2" in output

    def test_match_rejects_executor_for_chase(self, music_files, capsys):
        graph_path, keys_path = music_files
        exit_code = main(
            [
                "match",
                "--graph", graph_path,
                "--keys", keys_path,
                "--algorithm", "chase",
                "--executor", "process",
            ]
        )
        assert exit_code == 2
        assert "does not support executor" in capsys.readouterr().err

    def test_match_forwards_fanout(self, music_files, capsys):
        graph_path, keys_path = music_files
        exit_code = main(
            [
                "match",
                "--graph", graph_path,
                "--keys", keys_path,
                "--algorithm", "EMOptVC",
                "--fanout", "1",
            ]
        )
        assert exit_code == 0
        assert "alb1 == alb2" in capsys.readouterr().out

    def test_match_forwards_set_options(self, music_files, capsys):
        graph_path, keys_path = music_files
        exit_code = main(
            [
                "match",
                "--graph", graph_path,
                "--keys", keys_path,
                "--algorithm", "EMOptVC",
                "--set", "prioritize=false",
                "--set", "fanout=2",
            ]
        )
        assert exit_code == 0
        assert "art1 == art2" in capsys.readouterr().out

    def test_unaccepted_option_reports_error(self, music_files, capsys):
        graph_path, keys_path = music_files
        exit_code = main(
            [
                "match",
                "--graph", graph_path,
                "--keys", keys_path,
                "--algorithm", "EMMR",
                "--fanout", "2",
            ]
        )
        assert exit_code == 2
        assert "does not accept option" in capsys.readouterr().err

    def test_malformed_set_option_reports_error(self, music_files, capsys):
        graph_path, keys_path = music_files
        exit_code = main(
            ["match", "--graph", graph_path, "--keys", keys_path, "--set", "fanout"]
        )
        assert exit_code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_reserved_set_keys_report_clean_error(self, music_files, capsys):
        graph_path, keys_path = music_files
        exit_code = main(
            ["match", "--graph", graph_path, "--keys", keys_path, "--set", "processors=8"]
        )
        assert exit_code == 2
        assert "--processors" in capsys.readouterr().err


class TestSnapshotCommands:
    def test_save_info_verify_round_trip(self, music_files, tmp_path, capsys):
        graph_path, _keys_path = music_files
        store_dir = tmp_path / "snaps"
        assert main(["snapshot", "save", "--graph", graph_path, "--store", str(store_dir)]) == 0
        output = capsys.readouterr().out
        assert "fingerprint" in output
        files = list(store_dir.glob("*.snap"))
        assert len(files) == 1

        assert main(["snapshot", "info", str(files[0])]) == 0
        output = capsys.readouterr().out
        assert "format version: 2" in output
        assert "segment" in output

        assert main(["snapshot", "verify", str(files[0]), "--graph", graph_path]) == 0
        output = capsys.readouterr().out
        assert output.startswith("OK:")
        assert "fingerprint, graph version" in output

    def test_info_and_verify_understand_delta_files(self, music_files, tmp_path, capsys):
        from repro.core.parser import load_graph
        from repro.storage import GraphSnapshot, SnapshotStore

        graph = load_graph(music_files[0])
        store = SnapshotStore(tmp_path / "snaps")
        ancestor = GraphSnapshot.build(graph)
        canonical = store.save(ancestor, graph=graph)
        graph.add_value("alb1", "bonus_of", "extra")
        graph.retype_entity("art2", "album")
        patched = ancestor.patched(graph, graph.touched_since(ancestor.version))
        delta = store.patch(patched, base=ancestor)

        assert main(["snapshot", "info", str(canonical)]) == 0
        assert "kind          : canonical" in capsys.readouterr().out
        assert main(["snapshot", "info", str(delta)]) == 0
        output = capsys.readouterr().out
        assert "kind          : delta" in output
        assert f"ancestor      : {ancestor.store_fingerprint}" in output
        assert "3 rows, 0 tombstones, 1 new nodes, 1 new predicates, 1 typed or retyped" in output
        assert main(["snapshot", "verify", str(delta)]) == 0
        assert "ancestor" in capsys.readouterr().out
        canonical.unlink()
        assert main(["snapshot", "verify", str(delta)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_save_to_explicit_file(self, music_files, tmp_path, capsys):
        graph_path, _keys_path = music_files
        out = tmp_path / "music.snap"
        assert main(["snapshot", "save", "--graph", graph_path, "--out", str(out)]) == 0
        assert out.is_file()
        assert "wrote" in capsys.readouterr().out

    def test_verify_fails_on_corruption(self, music_files, tmp_path, capsys):
        graph_path, _keys_path = music_files
        out = tmp_path / "music.snap"
        assert main(["snapshot", "save", "--graph", graph_path, "--out", str(out)]) == 0
        capsys.readouterr()
        out.write_bytes(b"NOTASNAP" + out.read_bytes()[8:])
        assert main(["snapshot", "verify", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_info_on_a_non_snapshot_reports_error(self, music_files, capsys):
        graph_path, _keys_path = music_files
        assert main(["snapshot", "info", graph_path]) == 2
        assert "error" in capsys.readouterr().err

    def test_match_with_snapshot_store_reports_provenance(
        self, music_files, tmp_path, capsys
    ):
        graph_path, keys_path = music_files
        store_dir = str(tmp_path / "snaps")
        base = [
            "match", "--graph", graph_path, "--keys", keys_path,
            "--snapshot-store", store_dir, "--profile",
        ]
        assert main(base) == 0
        output = capsys.readouterr().out
        assert "built (store miss: 1), saved back" in output
        assert "alb1 == alb2" in output
        # second invocation: warm restart, the snapshot is loaded not built
        assert main(base) == 0
        output = capsys.readouterr().out
        assert "loaded from store (1 hit(s))" in output
        assert "snapshot_store_load" in output
        assert "alb1 == alb2" in output


class TestCheckCommand:
    def test_check_reports_violations(self, music_files, capsys):
        graph_path, keys_path = music_files
        exit_code = main(["check", "--graph", graph_path, "--keys", keys_path])
        output = capsys.readouterr().out
        assert exit_code == 1  # violations present → non-zero
        assert "duplicate candidates" in output


class TestGenerateCommand:
    @pytest.mark.parametrize("dataset", ["synthetic", "social", "knowledge"])
    def test_generate_writes_parseable_files(self, dataset, tmp_path, capsys):
        out_graph = tmp_path / "out.graph"
        out_keys = tmp_path / "out.keys"
        exit_code = main(
            [
                "generate",
                "--dataset", dataset,
                "--scale", "0.4",
                "--out-graph", str(out_graph),
                "--out-keys", str(out_keys),
            ]
        )
        assert exit_code == 0
        assert out_graph.exists() and out_keys.exists()
        # the generated files must round-trip through the match command
        assert main(["match", "--graph", str(out_graph), "--keys", str(out_keys)]) == 0


class TestBenchCommand:
    def test_bench_prints_series(self, capsys):
        exit_code = main(
            ["bench", "--dataset", "synthetic", "--processors", "2", "4", "--scale", "0.4"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "EMVC" in output and "speedup" in output


class TestAlgorithmsCommand:
    def test_lists_registered_algorithms_with_options(self, capsys):
        exit_code = main(["algorithms"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("chase", "EMMR", "EMVF2MR", "EMOptMR", "EMVC", "EMOptVC"):
            assert name in output
        assert "vertex-centric" in output
        assert "fanout=4" in output  # EMOptVC's accepted options are shown

    def test_json_flag_emits_the_machine_readable_catalog(self, capsys):
        import json

        exit_code = main(["algorithms", "--json"])
        output = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(output)  # valid JSON, nothing else on stdout
        # pinned literally, not against algorithm_catalog(): the listing is
        # a wire contract (GET /algorithms serves the same list), so names
        # in registration order, families, descriptions, capabilities and
        # every option's type, default and description must not drift
        assert payload == {"algorithms": PINNED_ALGORITHM_CATALOG}
        assert output == json.dumps(payload, indent=2, sort_keys=True) + "\n"
