"""Differential suite: the factorised chase ≡ the pairwise chase.

Every enforcement runs :func:`repro.plan.executor.chase_factorised`,
which groups candidate pairs by LHS value-pair signature
(:mod:`repro.plan.factorise`).  The pairwise
:func:`~repro.plan.executor.chase` is the reference kernel it must
agree with, and this suite is that claim's evidence.  For every
:mod:`repro.datagen.streams` arrival scenario on three datasets, the
two kernels must decide *identical* matches over the spec's blocking
candidates, with the same rounds, applications and chased values.  A
value-level test additionally pins that the chased instances agree
cell by cell, and Hypothesis properties check the kernel pair on random
instances and the group index's expansion/migration contract directly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Workspace
from repro.core.parser import parse_md
from repro.core.schema import LEFT, RIGHT, RelationSchema, SchemaPair
from repro.core.semantics import InstancePair
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import (
    arrival_stream,
    duplicate_burst_stream,
    late_duplicate_stream,
)
from repro.experiments.harness import resolution_spec_document
from repro.plan import compile_plan
from repro.plan.executor import chase, chase_factorised
from repro.plan.factorise import PairGroupIndex
from repro.relations.relation import Relation

SCENARIOS = {
    "arrival": arrival_stream,
    "duplicate-burst": duplicate_burst_stream,
    "late-duplicate": late_duplicate_stream,
}


def _scenario_relations(dataset, make_stream, seed):
    """The dataset's relations rebuilt in the scenario's arrival order."""
    workload = make_stream(dataset, seed=seed)
    left = Relation(dataset.pair.left)
    right = Relation(dataset.pair.right)
    for event in workload.events:
        target = left if event.side == 0 else right
        target.insert(event.values, tid=event.tid)
    return left, right


def _workspace(dataset):
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "hash", "key_length": 2},
        execution={"mode": "enforce"},
    )
    return Workspace.from_dict(document)


def _kernel_run(kernel, dataset, left, right):
    """One kernel on a fresh plan: its result, matches and probe counts."""
    plan = _workspace(dataset).plan
    pairs = plan.candidates(left, right)
    instance = InstancePair(plan.pair, left, right)
    result = kernel(plan, instance, candidate_pairs=pairs)
    target_pairs = plan.target.attribute_pairs()
    matches = [
        pair for pair in pairs if result.identified(*pair, target_pairs)
    ]
    return result, matches, plan.stats


@pytest.mark.parametrize("scenario", sorted(SCENARIOS), ids=sorted(SCENARIOS))
@pytest.mark.parametrize("seed", (1, 2, 4))
def test_factorised_and_pairwise_reports_identical(scenario, seed):
    dataset = generate_dataset(120, seed=seed)
    left, right = _scenario_relations(dataset, SCENARIOS[scenario], seed)

    pairwise, pairwise_matches, pairwise_stats = _kernel_run(
        chase, dataset, left, right
    )
    assert pairwise_stats.value_pairs_evaluated == 0
    assert pairwise_stats.groups_built == 0

    factorised, matches, stats = _kernel_run(
        chase_factorised, dataset, left, right
    )
    assert matches == pairwise_matches
    assert _values(factorised.instance) == _values(pairwise.instance)
    assert factorised.rounds == pairwise.rounds
    assert factorised.applications == pairwise.applications
    # The factorised run really took the group-at-a-time path ...
    assert stats.value_pairs_evaluated > 0
    assert stats.groups_built > 0
    # ... and it never probed more value pairs than the pairwise chase
    # probed (pair, atom) combinations.
    assert (
        stats.value_pairs_evaluated
        <= pairwise_stats.metric_evaluations + pairwise_stats.cache_hits
    )


def test_factorised_and_pairwise_resolved_values_identical():
    """Cell-level equivalence on the unshuffled datasets."""
    for seed in (3, 11):
        dataset = generate_dataset(120, seed=seed)
        factorised, _, _ = _kernel_run(
            chase_factorised, dataset, dataset.credit, dataset.billing
        )
        pairwise, _, _ = _kernel_run(
            chase, dataset, dataset.credit, dataset.billing
        )
        assert factorised.stable and pairwise.stable
        assert not factorised.rounds_exhausted
        assert _values(factorised.instance) == _values(pairwise.instance)
        assert factorised.rounds == pairwise.rounds
        assert factorised.applications == pairwise.applications


# ----------------------------------------------------------------------
# Hypothesis: the kernel pair on random instances, and the group index's
# expansion/migration contract.  Shapes mirror test_chase_properties.py:
# tiny closed value universes make LHS equalities fire and repairs
# cascade, which is where factorised bookkeeping could drift.
# ----------------------------------------------------------------------

ATTRIBUTES = ("A", "B", "C")

VALUES = st.sampled_from([None, "a", "b", "ab", "ba", "abc"])

rows = st.lists(
    st.fixed_dictionaries({name: VALUES for name in ATTRIBUTES}),
    min_size=1,
    max_size=8,
)

attribute = st.sampled_from(ATTRIBUTES)

mds = st.lists(
    st.tuples(
        st.lists(attribute, min_size=1, max_size=2, unique=True),
        st.lists(attribute, min_size=1, max_size=2, unique=True),
    ),
    min_size=1,
    max_size=3,
)


def _build(left_rows, right_rows, md_shapes):
    pair = SchemaPair(
        RelationSchema("R", ATTRIBUTES), RelationSchema("S", ATTRIBUTES)
    )
    sigma = [
        parse_md(
            " & ".join(f"R[{name}] = S[{name}]" for name in lhs)
            + " -> "
            + " & ".join(f"R[{name}] <=> S[{name}]" for name in rhs),
            pair,
        )
        for lhs, rhs in md_shapes
    ]
    plan = compile_plan(sigma=sigma)
    instance = InstancePair(
        pair, Relation(pair.left, left_rows), Relation(pair.right, right_rows)
    )
    return plan, instance


def _values(instance):
    return {
        (side, row.tid): row.values()
        for side, relation in ((LEFT, instance.left), (RIGHT, instance.right))
        for row in relation
    }


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds)
def test_factorised_chase_equals_pairwise_chase(
    left_rows, right_rows, md_shapes
):
    plan, instance = _build(left_rows, right_rows, md_shapes)
    pairwise = chase(plan, instance)
    factorised = chase_factorised(plan, instance)
    assert _values(factorised.instance) == _values(pairwise.instance)
    assert factorised.stable == pairwise.stable
    assert factorised.rounds == pairwise.rounds
    assert factorised.applications == pairwise.applications
    assert {
        frozenset(group) for group in factorised.merged_cells.classes()
    } == {frozenset(group) for group in pairwise.merged_cells.classes()}


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds)
def test_group_expansion_recovers_candidate_pairs(
    left_rows, right_rows, md_shapes
):
    """expand() is a partition: every pair exactly once, before and
    after migration."""
    plan, instance = _build(left_rows, right_rows, md_shapes)
    pairs = [
        (left.tid, right.tid)
        for left in instance.left
        for right in instance.right
    ]
    index = PairGroupIndex(plan, instance, pairs)
    assert sorted(index.expand()) == sorted(pairs)
    assert index.pair_count == len(pairs)
    # Each pair sits in the group matching its current signature.
    for group in index.groups.values():
        for pair in group.pairs:
            assert index.signature(instance, pair) == group.signature

    # Chase the instance (repairs rewrite values), then migrate every
    # pair to its post-repair group: still a partition of the same set.
    result = chase(plan, instance)
    touched = index.migrate(result.instance, pairs)
    assert sorted(index.expand()) == sorted(pairs)
    assert index.pair_count == len(pairs)
    for group in touched:
        for pair in group.pairs:
            assert index.signature(result.instance, pair) == group.signature
    # Group verdicts agree with the pairwise LHS test, signature by
    # signature, on the chased instance.
    for group in index.groups.values():
        verdict = plan.group_verdict(group.signature)
        for rule_index, rule in enumerate(plan.rules):
            for left_tid, right_tid in group.pairs:
                assert (rule_index in verdict) == plan.lhs_matches(
                    rule,
                    result.instance.left[left_tid],
                    result.instance.right[right_tid],
                )


def test_unhashable_values_fall_back_to_per_pair_groups():
    """Rows whose LHS values are unhashable still chase correctly."""
    pair = SchemaPair(
        RelationSchema("R", ("A", "B")), RelationSchema("S", ("A", "B"))
    )
    sigma = [parse_md("R[A] = S[A] -> R[B] <=> S[B]", pair)]
    plan = compile_plan(sigma=sigma)
    left = Relation(pair.left, [
        {"A": ["k"], "B": "value"},   # unhashable LHS value
        {"A": "plain", "B": "kept"},
    ])
    right = Relation(pair.right, [
        {"A": ["k"], "B": None},
        {"A": "plain", "B": None},
    ])
    instance = InstancePair(pair, left, right)
    pairs = [(0, 0), (1, 1)]

    index = PairGroupIndex(plan, instance, pairs)
    # The unhashable signature got a private per-pair group.
    assert index.group_count == 2
    assert sorted(index.expand()) == pairs

    factorised = chase_factorised(plan, instance, candidate_pairs=pairs)
    pairwise = chase(plan, instance, candidate_pairs=pairs)
    assert _values(factorised.instance) == _values(pairwise.instance)
    assert factorised.instance.right[0]["B"] == "value"
    assert factorised.instance.right[1]["B"] == "kept"


def test_factorised_rounds_exhausted_matches_pairwise():
    """A too-small round budget exhausts both kernels identically."""
    pair = SchemaPair(
        RelationSchema("R", ("A", "B", "C")),
        RelationSchema("S", ("A", "B", "C")),
    )
    sigma = [
        parse_md("R[A] = S[A] -> R[B] <=> S[B]", pair),
        parse_md("R[B] = S[B] -> R[C] <=> S[C]", pair),
    ]
    plan = compile_plan(sigma=sigma)
    instance = InstancePair(
        pair,
        Relation(pair.left, [{"A": "x", "B": "long-b", "C": "long-c"}]),
        Relation(pair.right, [{"A": "x", "B": None, "C": None}]),
    )
    for max_rounds in (1, 2):
        factorised = chase_factorised(plan, instance, max_rounds=max_rounds)
        pairwise = chase(plan, instance, max_rounds=max_rounds)
        assert factorised.rounds_exhausted == pairwise.rounds_exhausted
        assert factorised.rounds_exhausted == (max_rounds == 1)
        assert factorised.stable == pairwise.stable
        assert _values(factorised.instance) == _values(pairwise.instance)


def test_stream_reuses_group_verdicts_across_ingests():
    """The verdict cache lives on the plan, so a second, value-identical
    batch of records chases without evaluating any new value pair."""
    schema_doc = {"name": "R", "attributes": ["A", "B"]}
    document = {
        "version": 1,
        "schema": {"left": schema_doc, "right": schema_doc},
        "target": {"left": ["B"], "right": ["B"]},
        "rules": {"mds": ["R[A] = R[A] -> R[B] <=> R[B]"]},
        "execution": {"mode": "enforce"},
    }
    workspace = Workspace.from_dict(document)
    matcher = workspace.stream()

    records = [
        {"A": f"key-{index}", "B": f"value-{index}"} for index in range(4)
    ]
    for values in records:
        matcher.ingest(LEFT, dict(values))
        matcher.ingest(RIGHT, dict(values))
    after_first = workspace.plan.stats.value_pairs_evaluated
    assert after_first > 0

    # Same values again: every signature is already in the plan's
    # verdict cache, so the factorised chases probe nothing new.
    for values in records:
        matcher.ingest(RIGHT, dict(values))
    assert workspace.plan.stats.value_pairs_evaluated == after_first


def test_self_matching_shared_instance_equivalent():
    """Deduplication (left is right): both kernels repair one relation."""
    import random

    rng = random.Random(9)
    pair = SchemaPair(
        RelationSchema("R", ("A", "B", "C")),
        RelationSchema("R", ("A", "B", "C")),
    )
    plan = compile_plan(sigma=[parse_md("R[A] = R[A] -> R[B] <=> R[B]", pair)])
    relation = Relation(pair.left)
    for group in range(30):
        for member in range(rng.randint(2, 4)):
            relation.insert({
                "A": f"key-{group}",
                "B": f"value-{group}" if member == 0 else None,
                "C": member,
            })
    by_key = {}
    for row in relation:
        by_key.setdefault(row["A"], []).append(row.tid)
    pairs = [
        (a, b)
        for tids in by_key.values()
        for position, a in enumerate(tids)
        for b in tids[position + 1:]
    ]
    instance = InstancePair(pair, relation, relation)

    pairwise = chase(plan, instance, candidate_pairs=pairs)
    factorised = chase_factorised(plan, instance, candidate_pairs=pairs)
    for left_tid, right_tid in pairs:
        assert factorised.identified(
            left_tid, right_tid, [("B", "B")]
        ) == pairwise.identified(left_tid, right_tid, [("B", "B")])
    for tid in relation.tids():
        assert (
            factorised.instance.left[tid].values()
            == pairwise.instance.left[tid].values()
        )
        # Every group's nulls were repaired to the informative value.
        assert factorised.instance.left[tid]["B"] is not None
    # The shared copy stays shared.
    assert factorised.instance.left is factorised.instance.right


def test_order_dependent_policy_identical_across_kernels():
    """'first-non-null' picks by *order*, yet both kernels agree.

    The kernels union cells in different orders (per group vs per pair),
    and member sets iterate in hash-seed order.  The repair pass feeds
    the resolver a sorted member order, so an order-dependent policy
    still resolves every class to the same value.
    """
    dataset = generate_dataset(80, seed=3)
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "hash", "key_length": 2},
        execution={"mode": "enforce"},
    )
    document["resolution"] = {"policy": "first-non-null"}

    def chased_values(kernel):
        workspace = Workspace.from_dict(document)
        plan = workspace.plan
        result = kernel(
            plan,
            InstancePair(plan.pair, dataset.credit, dataset.billing),
            resolver=workspace.spec.resolver(),
            candidate_pairs=plan.candidates(dataset.credit, dataset.billing),
        )
        return _values(result.instance)

    assert chased_values(chase_factorised) == chased_values(chase)
