#!/usr/bin/env python3
"""Social-network reconciliation: linking duplicate user accounts.

The paper motivates keys for graphs with social-network reconciliation
(matching user accounts across networks).  This example generates a
Google+-like social-attribute network with duplicate accounts planted at
every level (users, universities, cities), then reconciles it twice:

* with a hand-written, human-readable key set (users identified by profile
  data or by their — recursively identified — university), and
* with the generated key set used by the benchmark workloads, comparing the
  MapReduce and vertex-centric algorithm families on the same input.

Run with:  python examples/social_reconciliation.py
"""

from __future__ import annotations

from repro import MatchSession
from repro.datasets.social import reconciliation_keys, social_dataset


def reconcile_with_handwritten_keys() -> None:
    print("=" * 70)
    print("Hand-written reconciliation keys (name+postal code, name+university, ...)")
    dataset = social_dataset(scale=1.0, chain_length=3, radius=1, seed=11)
    keys = reconciliation_keys()
    session = MatchSession(dataset.graph).with_keys(keys)
    result = session.using("EMOptVC", processors=4).run()
    users = [
        pair for pair in sorted(result.pairs())
        if dataset.graph.entity_type(pair[0]) == "user"
    ]
    print(f"  graph: {dataset.graph.stats()}")
    print(f"  reconciled user-account pairs ({len(users)}):")
    for e1, e2 in users[:10]:
        name = next(
            t.obj.value for t in dataset.graph.out_triples(e1)
            if t.predicate == "name_of" and t.object_is_value()
        )
        print(f"    {e1}  ≡  {e2}   ({name})")
    planted_users = {
        pair for pair in dataset.planted_pairs
        if dataset.graph.entity_type(pair[0]) == "user"
    }
    assert planted_users <= result.pairs(), "every planted duplicate account must be found"


def compare_algorithm_families() -> None:
    print("=" * 70)
    print("MapReduce vs vertex-centric on the generated workload (c=2, d=2)")
    dataset = social_dataset(scale=1.0, chain_length=2, radius=2, seed=11)
    # one session for all five backends: the candidate set, neighbourhood
    # index and product graph are computed once and shared
    session = MatchSession(dataset.graph).with_keys(dataset.keys)
    for algorithm in ("EMVF2MR", "EMMR", "EMOptMR", "EMVC", "EMOptVC"):
        # blocking="off": simulated seconds and checks over the paper's full L
        result = session.run(algorithm, processors=8, blocking="off")
        assert result.pairs() == dataset.planted_pairs
        extra = (
            f"rounds={result.stats.rounds}"
            if algorithm.endswith("MR")
            else f"messages={result.stats.messages_sent}"
        )
        print(
            f"  {algorithm:9s} simulated {result.simulated_seconds:7.2f}s on 8 workers "
            f"({extra}, checks={result.stats.checks})"
        )
    info = session.cache_info()
    print(f"  (shared artifacts: neighbourhood index ×{info.neighborhood_index_builds}, "
          f"product graph ×{info.product_graph_builds})")


if __name__ == "__main__":
    reconcile_with_handwritten_keys()
    compare_algorithm_families()
