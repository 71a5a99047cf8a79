"""The bug museum: invariant breaks this project once shipped and fixed,
kept as mutants the suite must go on killing.

Each mutant is a monkeypatch that swaps one function of ``src/`` for a buggy
twin written against the current code.  There are no patch files, so a
mutant cannot rot silently: a twin whose target is renamed or moved fails
to apply.  :data:`MUTANTS` maps each mutant to its patch and to the test
node ids that must kill it.  ``pytest --mutant NAME`` runs any selection of
the suite with one mutant applied (``tests/conftest.py``), and
``tests/test_mutants.py`` runs each mutant's killers that way.

A change that deletes or renames a mutant's target ports the mutant, or
says in CHANGES.md why that bug can no longer be written.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.matching import artifacts, blocking, pair_table
from repro.matching.blocking import BlockingIndex
from repro.matching.product_graph import ProductGraph

REBASE_PROPERTY = (
    "tests/properties/test_rebase_properties.py"
    "::test_rebased_artifacts_equal_rebuilt_ones_after_every_window"
)
REMEMBERED_ADJACENCY = (
    "tests/properties/test_delta_properties.py"
    "::test_remembered_adjacency_equals_a_fresh_product_graph_after_every_window"
)
NO_FALSE_NEGATIVES = (
    "tests/properties/test_no_false_negatives.py"
    "::test_the_fixpoint_survives_blocking_and_pairing_after_every_window"
)


@dataclass(frozen=True)
class Mutant:
    #: the bug, as it once shipped
    bug: str
    #: applies the mutant with a ``pytest.MonkeyPatch``
    apply: Callable
    #: the test node ids of which at least one must fail with it applied
    killers: Tuple[str, ...]


def _recollides_only_entities_that_collided(patch) -> None:
    recollide = BlockingIndex._recollide

    def twin(self, state, dirty_ids, stats):
        if any(state.lists.values()):
            collided = state.index()
            dirty_ids = {i: entity for i, entity in dirty_ids.items() if entity in collided}
        return recollide(self, state, dirty_ids, stats)

    patch.setattr(BlockingIndex, "_recollide", twin)


def _recollision_skips_unaffected_partners(patch) -> None:
    recollide = BlockingIndex._recollide

    def twin(self, state, dirty_ids, stats):
        # each block collides its rewritten members with one another only
        dirty = set(dirty_ids.values())
        tokens = self._tokens
        self._tokens = {
            index: (anchor, {token: members & dirty for token, members in members_of.items()})
            for index, (anchor, members_of) in tokens.items()
        }
        try:
            return recollide(self, state, dirty_ids, stats)
        finally:
            self._tokens = tokens

    patch.setattr(BlockingIndex, "_recollide", twin)


def _candidate_rebase_skips_unaffected_partners(patch) -> None:
    rebase = artifacts.rebase_filtered_candidates

    def twin(old, keys, *, affected_entities, touching, **kwargs):
        touching = [
            pair for pair in touching
            if pair[0] in affected_entities and pair[1] in affected_entities
        ]
        return rebase(
            old, keys, affected_entities=affected_entities, touching=touching, **kwargs
        )

    patch.setattr(artifacts, "rebase_filtered_candidates", twin)


def _drops_rows_only_in_the_key_ball(patch) -> None:
    rebased = ProductGraph.rebased

    def twin(self, graph, keys, candidates, affected_entities, rows, dependents=None):
        return rebased(
            self, graph, keys, candidates, affected_entities, affected_entities, dependents
        )

    patch.setattr(ProductGraph, "rebased", twin)


def _from_empty_drops_a_bucket_entity(patch) -> None:
    signatures = blocking._path_signatures

    def twin(snapshot, etype, path):
        found = signatures(snapshot, etype, path)
        last = max(found, default=None)
        return {entity: tokens for entity, tokens in found.items() if entity != last}

    patch.setattr(blocking, "_path_signatures", twin)


def _edits_a_held_list(patch) -> None:
    def twin(kept, dropped, added):
        for pair in dropped:
            del kept[bisect.bisect_left(kept, pair)]
        kept.extend(added)
        kept.sort()
        return kept

    patch.setattr(pair_table, "edited_list", twin)


MUTANTS: Dict[str, Mutant] = {
    "recollides_only_entities_that_collided": Mutant(
        "the blocking rebase rewrites only the affected entities that collided before",
        _recollides_only_entities_that_collided,
        (REBASE_PROPERTY, NO_FALSE_NEGATIVES),
    ),
    "recollision_skips_unaffected_partners": Mutant(
        "a recollision pairs an affected entity only with other affected ones",
        _recollision_skips_unaffected_partners,
        (REBASE_PROPERTY,),
    ),
    "candidate_rebase_skips_unaffected_partners": Mutant(
        "a candidate rebase re-pairs an affected entity only with other affected ones",
        _candidate_rebase_skips_unaffected_partners,
        (REBASE_PROPERTY,),
    ),
    "drops_rows_only_in_the_key_ball": Mutant(
        "a product-graph rebase recomputes adjacency rows only for the key "
        "ball, not for every touched entity",
        _drops_rows_only_in_the_key_ball,
        (REMEMBERED_ADJACENCY,),
    ),
    "from_empty_drops_a_bucket_entity": Mutant(
        "an apply from the empty blocking index leaves one bucket entity out",
        _from_empty_drops_a_bucket_entity,
        (REBASE_PROPERTY,),
    ),
    "edits_a_held_list": Mutant(
        "a pair-table edit writes into a type list the table it edits holds",
        _edits_a_held_list,
        (REBASE_PROPERTY,),
    ),
}
