"""Enforce-mode provenance equals a per-pair LHS recomputation.

:meth:`Workspace.enforce` names a match's rules from the group verdict
on the pair's chased signature (a verdict-cache hit after the chase's
stability check).  These tests recompute every match's rules the long
way — each rule's LHS tested on the chased tuple pair through
:meth:`EnforcementPlan.lhs_matches` — and require the same names, on the
three :mod:`repro.datagen.streams` arrival orders and on an instance
whose unhashable cell value sends :meth:`EnforcementPlan.group_verdict`
down its uncached path.
"""

from __future__ import annotations

import pytest

from repro.api import Workspace
from repro.core.semantics import InstancePair
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import (
    arrival_stream,
    duplicate_burst_stream,
    late_duplicate_stream,
)
from repro.experiments.harness import resolution_spec_document
from repro.relations.relation import Relation

SCENARIOS = {
    "arrival": arrival_stream,
    "duplicate-burst": duplicate_burst_stream,
    "late-duplicate": late_duplicate_stream,
}


def _recomputed_provenance(workspace, left, right, report):
    """Each match's rule names from ``lhs_matches`` on the chased pair."""
    plan = workspace.plan
    chased = plan.enforce(
        InstancePair(plan.pair, left, right),
        resolver=workspace.spec.resolver(),
        candidate_pairs=report.candidates,
        max_rounds=workspace.spec.max_rounds,
    ).instance
    return {
        (left_tid, right_tid): tuple(
            rule.name
            for rule in plan.rules
            if plan.lhs_matches(
                rule, chased.left[left_tid], chased.right[right_tid]
            )
        )
        for left_tid, right_tid in report.matches
    }


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_provenance_equals_lhs_recomputation(scenario):
    dataset = generate_dataset(120, seed=5)
    workload = SCENARIOS[scenario](dataset, seed=5)
    left = Relation(dataset.pair.left)
    right = Relation(dataset.pair.right)
    for event in workload.events:
        (left if event.side == 0 else right).insert(event.values, tid=event.tid)
    workspace = Workspace.from_dict(
        resolution_spec_document(
            dataset.pair,
            dataset.target,
            extended_mds(dataset.pair),
            blocking={"backend": "hash", "key_length": 2},
            execution={"mode": "enforce"},
        )
    )

    report = workspace.match(left, right)

    assert report.matches
    assert dict(report.provenance) == _recomputed_provenance(
        workspace, left, right, report
    )
    assert all(report.provenance[pair] for pair in report.matches)


def test_provenance_with_an_unhashable_cell_value():
    workspace = Workspace.from_dict(
        {
            "version": 1,
            "schema": {
                "left": {"name": "R", "attributes": ["A", "B", "C"]},
                "right": {"name": "S", "attributes": ["A", "B", "C"]},
            },
            "target": {"left": ["B"], "right": ["B"]},
            "rules": {
                "mds": [
                    "R[A] = S[A] -> R[B] <=> S[B]",
                    "R[C] = S[C] -> R[B] <=> S[B]",
                ]
            },
            "execution": {"mode": "enforce"},
        }
    )
    pair = workspace.plan.pair
    left = Relation(pair.left, [
        {"A": ["k"], "B": "value", "C": "x"},   # unhashable LHS value
        {"A": "plain", "B": "kept", "C": "y"},
    ])
    right = Relation(pair.right, [
        {"A": ["k"], "B": None, "C": "z"},
        {"A": "plain", "B": None, "C": "y"},
    ])

    report = workspace.match(left, right, candidates=[(0, 0), (1, 1)])

    assert report.matches == ((0, 0), (1, 1))
    assert dict(report.provenance) == {(0, 0): ("md0",), (1, 1): ("md0", "md1")}
    assert dict(report.provenance) == _recomputed_provenance(
        workspace, left, right, report
    )
