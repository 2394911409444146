"""Property-based tests (Hypothesis) for the enforcement chase.

Randomized small instances and MD sets over a fixed schema pair check
the kernel's algebraic contracts:

* **immutability** — the original instance is never mutated, whatever
  the rules do ("in the matching process instance D may not be
  updated");
* **idempotence** — a converged chase is a fixpoint: chasing the result
  again applies no rule and changes no value;
* **monotonicity of merges** — identifications only grow with more
  rounds: every cell pair merged under ``max_rounds=k`` stays merged
  under any larger bound, and a chase that did not exhaust its rounds
  decides exactly what the unbounded chase decides;
* **chase locality (shard-union == full-run)** — chasing each connected
  component of the candidate pairs (:func:`repro.plan.shard_pairs`)
  separately and unioning the results reproduces the full chase's
  identifications and repaired values: pairs that share no tuple never
  influence each other.

The shapes are deliberately tiny (≤ 8 rows per side, ≤ 3 MDs over a
3-attribute schema with equality operators): the properties are about
rule interaction — repairs enabling later rules, merge classes growing
across rounds — not scale, and small shapes keep Hypothesis fast while
shrinking failures to readable instances.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_md
from repro.core.schema import LEFT, RIGHT, RelationSchema, SchemaPair
from repro.core.semantics import InstancePair
from repro.plan import compile_plan, shard_pairs
from repro.plan.executor import chase
from repro.relations.relation import Relation

ATTRIBUTES = ("A", "B", "C")

#: A small closed value universe: overlapping values make LHS equalities
#: fire, differing lengths make the prefer-informative resolver rewrite.
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
    """Realize generated shapes as a compiled plan and an instance pair."""
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


def _values(instance: InstancePair):
    return {
        (side, row.tid): row.values()
        for side, relation in ((LEFT, instance.left), (RIGHT, instance.right))
        for row in relation
    }


def _identified_cells(result):
    """Every merged (cell, cell) identification as a canonical frozenset."""
    return {
        frozenset(group) for group in result.merged_cells.classes()
    }


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds)
def test_original_instance_never_mutated(left_rows, right_rows, md_shapes):
    plan, instance = _build(left_rows, right_rows, md_shapes)
    before = _values(instance)
    chase(plan, instance)
    assert _values(instance) == before


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds)
def test_chase_is_idempotent(left_rows, right_rows, md_shapes):
    plan, instance = _build(left_rows, right_rows, md_shapes)
    first = chase(plan, instance)
    assert first.stable
    assert not first.rounds_exhausted
    # Idempotence is a *value-level* fixpoint: re-chasing may re-identify
    # cells (each chase starts a fresh union-find), but those classes
    # already carry one value, so nothing is ever rewritten again.
    again = chase(plan, first.instance)
    assert again.stable
    assert _values(again.instance) == _values(first.instance)


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds, st.integers(min_value=1, max_value=4))
def test_merges_grow_monotonically_with_rounds(
    left_rows, right_rows, md_shapes, bound
):
    plan, instance = _build(left_rows, right_rows, md_shapes)
    bounded = chase(plan, instance, max_rounds=bound)
    full = chase(plan, instance)
    # Every class merged under the bound survives (possibly having grown)
    # in the unbounded chase.
    for group in bounded.merged_cells.classes():
        anchor, *rest = sorted(group)
        for member in rest:
            assert full.merged_cells.same(anchor, member)
    # A non-exhausted bounded chase reached a stable instance: later
    # rounds may still merge cells that already carry equal values, but
    # they can never rewrite one — the *values* are final.
    if not bounded.rounds_exhausted:
        assert _values(bounded.instance) == _values(full.instance)
    # Converging strictly inside the bound (a no-merge round ran) means
    # the bounded chase IS the full chase, identifications included.
    if bounded.rounds < bound:
        assert _identified_cells(bounded) == _identified_cells(full)


@settings(max_examples=40, deadline=None)
@given(rows, rows, mds, st.data())
def test_shard_union_equals_full_run(left_rows, right_rows, md_shapes, data):
    """Chasing each connected component separately ≡ one full chase.

    The candidate pairs are a drawn *subset* of the cross product — the
    full cross product is always one connected component (every pair
    shares a tuple with every same-row pair), so only sparse pair sets,
    like the ones blocking produces, exercise real multi-shard splits.
    """
    plan, instance = _build(left_rows, right_rows, md_shapes)
    universe = list(instance.tuple_pairs())
    pairs = data.draw(
        st.lists(st.sampled_from(universe), unique=True, max_size=12),
        label="candidate_pairs",
    )
    full = chase(plan, instance, candidate_pairs=pairs)

    union_identified = set()
    union_values = _values(instance)
    for shard in shard_pairs(pairs):
        result = chase(plan, instance, candidate_pairs=list(shard.pairs))
        union_identified |= _identified_cells(result)
        after = _values(result.instance)
        for tid in shard.left_tids:
            union_values[(LEFT, tid)] = after[(LEFT, tid)]
        for tid in shard.right_tids:
            union_values[(RIGHT, tid)] = after[(RIGHT, tid)]

    assert union_identified == _identified_cells(full)
    assert union_values == _values(full.instance)
