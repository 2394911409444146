"""The enforcement chase, executed over a compiled plan.

Two executions of one semantics live here.  :func:`chase_factorised` is
the production kernel: every :meth:`EnforcementPlan.enforce` call runs
it, serially, in the calling process.  It chases distinct value-pair
groups (:mod:`repro.plan.factorise`) and expands to record pairs only
when a group's LHS verdict fires.  :func:`chase`, the pairwise loop (the
former :func:`repro.core.semantics.enforce` body re-targeted to compiled
rules), is the reference kernel: the differential and property suites
compare :func:`chase_factorised` against it, and nothing in production
calls it.  Every LHS conjunct is a pre-resolved predicate evaluated
through the plan's similarity cache, so repeated chase rounds (and rules
sharing atoms) never recompute a metric on the same value pair.  Both
produce identical :class:`~repro.core.semantics.EnforcementResult`
contents (``tests/plan/test_factorised_equivalence.py`` pins it).

``repro.core.semantics.enforce`` compiles a throwaway plan and delegates
here; the batch :class:`~repro.matching.pipeline.EnforcementMatcher` and
the streaming :class:`~repro.engine.matcher.IncrementalMatcher` hold a
long-lived plan and call :meth:`EnforcementPlan.enforce`, sharing the
cache across runs and ingests.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.semantics import (
    Cell,
    EnforcementResult,
    InstancePair,
    ValueResolver,
    _CellUnionFind,
    _cell_value,
    prefer_informative,
)
from repro.core.schema import LEFT, RIGHT

from .factorise import PairGroupIndex


def _resolve_touched(
    working: InstancePair,
    cells: _CellUnionFind,
    touched: Sequence[Cell],
    resolver: ValueResolver,
    shared: bool,
    tracer,
) -> Set[Tuple[int, int]]:
    """Re-resolve every class that gained a member this round.

    ``touched`` holds one anchor cell per successful union of the round;
    resolving only their classes is equivalent to the former full
    pair × side × attribute rescan: a class whose membership did not
    change already carries the one value the previous round's resolution
    wrote everywhere, so re-resolving it is a no-op for any resolver that
    is a function of the member value multiset (all named policies are).

    Returns the ``(side, tid)`` tuples a write actually changed — only
    their pairs can behave differently next round.
    """
    changed: Set[Tuple[int, int]] = set()
    with tracer.span("resolve-merged") as resolve_span:
        seen_roots: Set[Cell] = set()
        repairs = 0
        for anchor in touched:
            root = cells.find(anchor)
            if root in seen_roots:
                continue
            seen_roots.add(root)
            members = cells.members(anchor)
            # Feed the resolver a *sorted* member order: members()
            # returns a set, and set iteration order depends on the
            # process hash seed — an order-dependent policy
            # (first-non-null) would otherwise resolve differently from
            # one run to the next.
            values = [
                _cell_value(working, member, shared)
                for member in sorted(members)
            ]
            resolved = resolver(values)
            for member in members:
                member_side, member_tid, member_attr = member
                member_relation = (
                    working.left if member_side == LEFT else working.right
                )
                if member_relation[member_tid][member_attr] != resolved:
                    member_relation.set_value(member_tid, member_attr, resolved)
                    repairs += 1
                    changed.add((member_side, member_tid))
                    if shared:
                        # One storage serves both sides: a write through
                        # either tag dirties the tuple's pairs on both.
                        changed.add((LEFT + RIGHT - member_side, member_tid))
        resolve_span.set("repairs", repairs)
    return changed


def chase(
    plan,
    instance: InstancePair,
    resolver: ValueResolver = prefer_informative,
    candidate_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    max_rounds: int = 100,
) -> EnforcementResult:
    """Chase ``instance`` with the plan's compiled rules to a stable extension.

    The pairwise reference kernel: it decides exactly what
    :func:`chase_factorised` decides, one record pair at a time, and the
    differential suites use it as the oracle for the production kernel.

    Each round scans the candidate tuple pairs; whenever a pair matches a
    rule's LHS in the *current* instance, the RHS cells are merged and every
    merged class is re-resolved to a single value.  Rounds repeat until no
    merge happens.  The original ``instance`` is never mutated (the paper:
    "in the matching process instance D may not be updated").

    Three kernel refinements over the naive loop, none observable in the
    result: rounds after the first only re-scan pairs at least one of
    whose tuples a consensus repair actually changed (an unchanged pair's
    LHS verdict cannot change and its RHS cells are already merged); the
    resolve-merged step visits only classes that gained a member this
    round (:func:`_resolve_touched`) instead of rescanning every
    pair × side × attribute; and the final stability check evaluates each
    rule's LHS once through the compiled predicates instead of twice per
    (pair, rule) through the registry.

    ``candidate_pairs`` bounds the quadratic pair scan; matchers pass the
    output of the plan's blocking backend here.
    """
    working = instance.copy()
    cells = _CellUnionFind()
    pairs: List[Tuple[int, int]] = (
        list(candidate_pairs)
        if candidate_pairs is not None
        else list(instance.tuple_pairs())
    )
    stats = plan.stats
    stats.enforcements += 1
    stats.pairs_compared += len(pairs)
    tracer = plan.tracer
    chase_start = time.perf_counter()

    chase_span = tracer.span(
        "chase", pairs=len(pairs), rules=len(plan.rules), max_rounds=max_rounds
    )
    chase_span.__enter__()
    applications = 0
    rounds = 0
    shared = working.left is working.right
    active = pairs
    merged_this_round = False
    while rounds < max_rounds:
        rounds += 1
        merged_this_round = False
        round_span = tracer.span("chase-round", round=rounds, active=len(active))
        round_span.__enter__()
        before = applications
        touched: List[Cell] = []
        for left_tid, right_tid in active:
            t1 = working.left[left_tid]
            t2 = working.right[right_tid]
            for rule in plan.rules:
                if not plan.lhs_matches(rule, t1, t2):
                    continue
                for left_attr, right_attr in rule.rhs:
                    left_cell: Cell = (LEFT, left_tid, left_attr)
                    right_cell: Cell = (RIGHT, right_tid, right_attr)
                    if cells.union(left_cell, right_cell):
                        merged_this_round = True
                        applications += 1
                        touched.append(left_cell)
        round_span.set("merges", applications - before)
        if not merged_this_round:
            round_span.__exit__(None, None, None)
            break
        # Re-resolve every class that gained a member to one value —
        # only the cells actually unioned this round, not a full
        # pair × side × attribute rescan.
        changed = _resolve_touched(
            working, cells, touched, resolver, shared, tracer
        )
        active = [
            (left_tid, right_tid)
            for left_tid, right_tid in pairs
            if (LEFT, left_tid) in changed or (RIGHT, right_tid) in changed
        ]
        round_span.__exit__(None, None, None)

    # Stability: (D', D') ⊨ Σ — for every pair matching a rule's LHS in
    # D', the RHS cells must carry equal values.  (With original and
    # extended both D', the "LHS still matches" recheck is the same
    # evaluation, so one pass through the compiled predicates suffices.)
    stable = True
    unstable_rule = None
    with tracer.span("stability-check"):
        for left_tid, right_tid in pairs:
            t1 = working.left[left_tid]
            t2 = working.right[right_tid]
            for rule in plan.rules:
                if not plan.lhs_matches(rule, t1, t2):
                    continue
                for left_attr, right_attr in rule.rhs:
                    if t1[left_attr] != t2[right_attr]:
                        stable = False
                        unstable_rule = rule.name
                        break
                if not stable:
                    break
            if not stable:
                break
    # Exhaustion: the round budget ran out AND the result is not a
    # fixpoint — the last permitted round still merged, or no round was
    # permitted at all.  A chase whose last permitted round merged but
    # left a stable instance did converge — further rounds could only
    # merge cells that already carry equal values, never rewrite one —
    # so only instability makes the cut-off observable.
    rounds_exhausted = (merged_this_round or rounds == 0) and not stable
    stats.chase_rounds += rounds
    stats.rule_applications += applications
    chase_span.set("rounds", rounds)
    chase_span.set("applications", applications)
    chase_span.set("stable", stable)
    if rounds_exhausted:
        stats.rounds_exhausted += 1
        # Record what triggered the cut-off: the rule whose RHS was
        # still unequal at the budget, and the full rule set in play.
        chase_span.set("rounds_exhausted", True)
        chase_span.set("unstable_rule", unstable_rule)
        chase_span.set("rule_set", [rule.name for rule in plan.rules])
    chase_span.__exit__(None, None, None)
    plan.metrics.observe("chase.rounds", rounds)
    plan.metrics.observe("chase.seconds", time.perf_counter() - chase_start)
    return EnforcementResult(
        working, stable, rounds, cells, applications, rounds_exhausted
    )


def chase_factorised(
    plan,
    instance: InstancePair,
    resolver: ValueResolver = prefer_informative,
    candidate_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    max_rounds: int = 100,
) -> EnforcementResult:
    """The production chase: :func:`chase`'s result, computed per group.

    Candidate pairs are grouped by their distinct LHS value-pair
    signature (:class:`~repro.plan.factorise.PairGroupIndex`); each round
    computes one verdict per distinct signature
    (:meth:`~repro.plan.compile.EnforcementPlan.group_verdict`) and
    expands a group back to record pairs only when its verdict fires.
    After repairs, only the dirty pairs migrate to their re-computed
    signature groups — the factorisation is maintained incrementally,
    never rebuilt.

    Equivalence with the pairwise loop (the differential suite in
    ``tests/plan/test_factorised_equivalence.py`` pins it): within a
    round the instance is fixed, and a rule's LHS reads exactly the
    signature's value pairs, so the group verdict equals every member
    pair's verdict; the per-round count of *successful* unions is
    order-independent (it equals the drop in the number of cell classes);
    and the dirty sets coincide because repairs are applied to the same
    classes.  Hence rounds, applications, stability, merged classes and
    repaired values are all identical.
    """
    working = instance.copy()
    cells = _CellUnionFind()
    pairs: List[Tuple[int, int]] = (
        list(candidate_pairs)
        if candidate_pairs is not None
        else list(instance.tuple_pairs())
    )
    stats = plan.stats
    stats.enforcements += 1
    stats.pairs_compared += len(pairs)
    tracer = plan.tracer
    chase_start = time.perf_counter()

    chase_span = tracer.span(
        "chase",
        pairs=len(pairs),
        rules=len(plan.rules),
        max_rounds=max_rounds,
        factorised=True,
    )
    chase_span.__enter__()
    with tracer.span("factorise") as factorise_span:
        index = PairGroupIndex(plan, working, pairs)
        factorise_span.set("groups", index.group_count)
    stats.groups_built += index.group_count
    stats.factorisation_ratio = round(index.ratio, 4)
    chase_span.set("groups", index.group_count)
    chase_span.set("factorisation_ratio", stats.factorisation_ratio)

    applications = 0
    rounds = 0
    shared = working.left is working.right
    active_groups = list(index.groups.values())
    merged_this_round = False
    while rounds < max_rounds:
        rounds += 1
        merged_this_round = False
        round_span = tracer.span(
            "chase-round",
            round=rounds,
            active=sum(len(group) for group in active_groups),
            groups=len(active_groups),
        )
        round_span.__enter__()
        before = applications
        touched: List[Cell] = []
        for group in active_groups:
            verdict = plan.group_verdict(group.signature)
            if not verdict:
                continue
            # Expansion: the verdict holds for every member pair, so the
            # RHS merges apply per record pair.  Pairs that already fired
            # in an earlier round union idempotently (no application
            # counted), exactly as on the pairwise path.
            for rule_index in verdict:
                rule = plan.rules[rule_index]
                for left_tid, right_tid in group.pairs:
                    for left_attr, right_attr in rule.rhs:
                        left_cell: Cell = (LEFT, left_tid, left_attr)
                        right_cell: Cell = (RIGHT, right_tid, right_attr)
                        if cells.union(left_cell, right_cell):
                            merged_this_round = True
                            applications += 1
                            touched.append(left_cell)
        round_span.set("merges", applications - before)
        if not merged_this_round:
            round_span.__exit__(None, None, None)
            break
        changed = _resolve_touched(
            working, cells, touched, resolver, shared, tracer
        )
        dirty = [
            (left_tid, right_tid)
            for left_tid, right_tid in pairs
            if (LEFT, left_tid) in changed or (RIGHT, right_tid) in changed
        ]
        active_groups = index.migrate(working, dirty)
        round_span.__exit__(None, None, None)

    # Stability over the factorisation: the index is current (repairs and
    # migration happen in the same round iteration), so one verdict per
    # group — usually a verdict-cache hit — plus RHS equality per member
    # pair of the firing groups.
    stable = True
    unstable_rule = None
    with tracer.span("stability-check"):
        for group in index.groups.values():
            for rule_index in plan.group_verdict(group.signature):
                rule = plan.rules[rule_index]
                for left_tid, right_tid in group.pairs:
                    t1 = working.left[left_tid]
                    t2 = working.right[right_tid]
                    for left_attr, right_attr in rule.rhs:
                        if t1[left_attr] != t2[right_attr]:
                            stable = False
                            unstable_rule = rule.name
                            break
                    if not stable:
                        break
                if not stable:
                    break
            if not stable:
                break
    rounds_exhausted = (merged_this_round or rounds == 0) and not stable
    stats.chase_rounds += rounds
    stats.rule_applications += applications
    chase_span.set("rounds", rounds)
    chase_span.set("applications", applications)
    chase_span.set("stable", stable)
    if rounds_exhausted:
        stats.rounds_exhausted += 1
        chase_span.set("rounds_exhausted", True)
        chase_span.set("unstable_rule", unstable_rule)
        chase_span.set("rule_set", [rule.name for rule in plan.rules])
    chase_span.__exit__(None, None, None)
    plan.metrics.observe("chase.rounds", rounds)
    plan.metrics.observe("chase.seconds", time.perf_counter() - chase_start)
    return EnforcementResult(
        working, stable, rounds, cells, applications, rounds_exhausted
    )
