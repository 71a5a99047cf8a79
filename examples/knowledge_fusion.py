#!/usr/bin/env python3
"""Knowledge fusion: deduplicating a DBpedia-like knowledge base.

Two scenarios from the paper's motivation (knowledge fusion / knowledge-base
expansion):

1. a small hand-built fusion case exercising the three keys of Fig. 7
   (books, companies and artists contributed twice by different sources);
2. a generated DBpedia-like workload with planted duplicates, deduplicated
   with the recursive keys generated for it, including a dependency chain
   (book → artist → location) that forces the chase to identify locations
   before artists before books.

Run with:  python examples/knowledge_fusion.py
"""

from __future__ import annotations

from repro import MatchSession
from repro.datasets.knowledge import fusion_example_graph, knowledge_dataset


def run_fig7_scenario() -> None:
    print("=" * 70)
    print("Scenario 1: the Fig. 7 keys on a hand-built two-source fusion case")
    graph, keys, expected = fusion_example_graph()
    print(f"  graph: {graph.stats()}")
    for key in keys:
        flavour = "recursive" if key.is_recursive else "value-based"
        print(f"  key {key.name} ({flavour}, for {key.target_type})")
    result = MatchSession(graph).with_keys(keys).using("EMOptVC").run()
    print("  fused entity pairs:")
    for e1, e2 in sorted(result.pairs()):
        print(f"    {e1}  ≡  {e2}")
    assert result.pairs() == set(expected), "fusion must find exactly the cross-source duplicates"


def run_generated_scenario() -> None:
    print("=" * 70)
    print("Scenario 2: a generated DBpedia-like knowledge base with planted duplicates")
    dataset = knowledge_dataset(scale=1.0, chain_length=3, radius=2, seed=23)
    print(f"  graph: {dataset.graph.stats()}")
    print(f"  keys : {dataset.keys.stats()}")
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    # blocking="off": simulated time over the paper's full candidate list L
    result = session.using("EMOptMR", processors=8, blocking="off").run()
    found = result.pairs()
    print(f"  planted duplicates : {len(dataset.planted_pairs)}")
    print(f"  identified pairs   : {len(found)}")
    print(f"  simulated time     : {result.simulated_seconds:.2f}s on 8 workers, "
          f"{result.stats.rounds} MapReduce rounds")
    precision = len(found & dataset.planted_pairs) / max(1, len(found))
    recall = len(found & dataset.planted_pairs) / max(1, len(dataset.planted_pairs))
    print(f"  precision={precision:.2f} recall={recall:.2f}")
    assert found == dataset.planted_pairs


if __name__ == "__main__":
    run_fig7_scenario()
    run_generated_scenario()
