"""The factorised chase unions each (pair, RHS attribute pair) at most once.

:func:`~repro.plan.executor.chase_factorised` remembers, per record
pair, the RHS attribute pairs it has already unioned.  Extended MDs
share RHS attribute pairs, and a pair that migrates to a new group fires
again in a later round; the cell union-find only grows within a chase,
so a repeated ``union`` call could merge nothing.  These tests wrap
:meth:`_CellUnionFind.union`, assert no (left cell, right cell) argument
pair repeats within one chase, and check that skipping the repeats
changes nothing: applications, rounds and merged classes equal those of
the pairwise reference :func:`~repro.plan.executor.chase`.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Workspace
from repro.core.parser import parse_md
from repro.core.schema import LEFT, RIGHT, RelationSchema, SchemaPair
from repro.core.semantics import InstancePair, _CellUnionFind
from repro.datagen import high_duplication_dataset
from repro.datagen.schemas import extended_mds
from repro.experiments.harness import resolution_spec_document
from repro.plan import compile_plan
from repro.plan.executor import chase, chase_factorised
from repro.relations.relation import Relation


@contextmanager
def recorded_unions():
    """Record the arguments of every ``_CellUnionFind.union`` call."""
    calls = []
    original = _CellUnionFind.union

    def union(cells, a, b):
        calls.append((a, b))
        return original(cells, a, b)

    _CellUnionFind.union = union
    try:
        yield calls
    finally:
        _CellUnionFind.union = original


def _classes(result):
    return {frozenset(group) for group in result.merged_cells.classes()}


def _assert_no_repeat_and_same_as_reference(plan, instance, pairs=None):
    with recorded_unions() as calls:
        factorised = chase_factorised(plan, instance, candidate_pairs=pairs)
    repeated = [args for args, count in Counter(calls).items() if count > 1]
    assert repeated == []
    reference = chase(plan, instance, candidate_pairs=pairs)
    assert factorised.applications == reference.applications
    assert factorised.rounds == reference.rounds
    assert _classes(factorised) == _classes(reference)
    return calls, factorised


def test_high_duplication_unions_each_cell_pair_once():
    dataset = high_duplication_dataset(300, seed=2)
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "hash", "key_length": 2},
        execution={"mode": "enforce"},
    )
    plan = Workspace.from_dict(document).plan
    pairs = plan.candidates(dataset.credit, dataset.billing)
    instance = InstancePair(plan.pair, dataset.credit, dataset.billing)
    _, result = _assert_no_repeat_and_same_as_reference(plan, instance, pairs)
    assert result.applications > 0


# ----------------------------------------------------------------------
# A chain whose repairs grow a pair's verdict: md0 identifies B, which
# md1's LHS compares, so a pair that fires md0 in round 1 fires md0 and
# md1 in round 2 and must union only C there.
# ----------------------------------------------------------------------

ATTRIBUTES = ("A", "B", "C")
PAIR = SchemaPair(RelationSchema("R", ATTRIBUTES), RelationSchema("S", ATTRIBUTES))
CHAIN = (
    "R[A] = S[A] -> R[B] <=> S[B]",
    "R[A] = S[A] & R[B] = S[B] -> R[B] <=> S[B] & R[C] <=> S[C]",
)

VALUES = st.sampled_from([None, "a", "b", "ab", "ba"])
rows = st.lists(
    st.fixed_dictionaries({name: VALUES for name in ATTRIBUTES}),
    min_size=1,
    max_size=6,
)


def _chain_instance(left_rows, right_rows):
    plan = compile_plan(sigma=[parse_md(text, PAIR) for text in CHAIN])
    instance = InstancePair(
        PAIR, Relation(PAIR.left, left_rows), Relation(PAIR.right, right_rows)
    )
    return plan, instance


GROWING = (
    [{"A": "a", "B": "ab", "C": "ba"}],
    [{"A": "a", "B": "a", "C": "b"}],
)


@settings(max_examples=60, deadline=None)
@given(rows, rows)
@example(*GROWING)
def test_growing_verdicts_union_each_cell_pair_once(left_rows, right_rows):
    plan, instance = _chain_instance(left_rows, right_rows)
    _assert_no_repeat_and_same_as_reference(plan, instance)


def test_a_grown_verdict_unions_only_its_new_attribute_pairs():
    plan, instance = _chain_instance(*GROWING)
    calls, result = _assert_no_repeat_and_same_as_reference(plan, instance)
    # Round 1 fires md0 and unions B; the repair makes B equal, so round
    # 2 fires md0 and md1 and unions only C; round 3 finds nothing new.
    assert calls == [
        ((LEFT, 0, "B"), (RIGHT, 0, "B")),
        ((LEFT, 0, "C"), (RIGHT, 0, "C")),
    ]
    assert result.rounds == 3
    assert result.applications == 2
    assert result.stable
