"""End-to-end MD-based matching pipelines.

The paper positions MDs/RCKs as a compile-time facility that existing
matchers plug in.  This module packages the full flow for downstream users:

1. compile the rules once into an :class:`~repro.plan.compile.EnforcementPlan`
   (deduced RCKs, deduplicated predicates, resolved metrics, a blocking
   backend — see :mod:`repro.plan`);
2. generate candidate pairs through the plan's blocking backend;
3. decide matches either

   * *directly*: a pair matches when some RCK's comparisons all agree
     (:class:`RCKMatcher`), or
   * *by enforcement*: chase the instances with the MDs and read matches
     off the identified target cells (:class:`EnforcementMatcher`) — the
     dynamic semantics in action, able to match tuples that no single rule
     matches directly (the paper's t1/t4 example, where ϕ2 first repairs
     the address and ϕ1 then fires).

Both matchers are *batch*: each run re-blocks, re-compares and re-enforces
the full instance from scratch.  For online workloads — records arriving
one at a time or in micro-batches against a warm instance — use
:mod:`repro.engine`, which executes the *same* compiled plan over per-record
deltas; driving both matchers through one shared plan is exactly how the
batch/streaming equivalence suite pins their agreement
(``tests/plan/test_batch_stream_equivalence.py``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.md import MatchingDependency
from repro.core.rck import RelativeKey
from repro.core.schema import ComparableLists
from repro.core.semantics import InstancePair
from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from repro.plan.compile import EnforcementPlan, compile_plan
from repro.relations.relation import Relation

from .evaluate import Pair


def _warn_deprecated(old: str, replacement: str) -> None:
    """One DeprecationWarning, attributed to the external caller.

    ``stacklevel=3`` skips this helper *and* the public entry point that
    called it, so the warning points at user code — and the test suite's
    "no DeprecationWarning from within repro" filter stays meaningful.
    """
    warnings.warn(
        f"{old} is deprecated and will be removed in a future release; "
        f"{replacement}",
        DeprecationWarning,
        stacklevel=3,
    )


@dataclass(frozen=True)
class PipelineResult:
    """Matches plus the candidate set they were drawn from."""

    matches: Tuple[Pair, ...]
    candidates: Tuple[Pair, ...]


class RCKMatcher:
    """Direct rule matching with deduced RCKs, executed via a compiled plan.

    >>> # matcher = RCKMatcher.from_mds(sigma, target, top_k=5)
    >>> # result = matcher.match(credit, billing)
    """

    def __init__(
        self,
        rcks: Sequence[RelativeKey] = (),
        window: int = 10,
        registry: MetricRegistry = DEFAULT_REGISTRY,
        plan: Optional[EnforcementPlan] = None,
    ) -> None:
        _warn_deprecated(
            "RCKMatcher",
            "build a repro.api.Workspace (execution mode 'direct') and "
            "call Workspace.match",
        )
        self._init(rcks=rcks, window=window, registry=registry, plan=plan)

    def _init(
        self,
        rcks: Sequence[RelativeKey] = (),
        window: int = 10,
        registry: MetricRegistry = DEFAULT_REGISTRY,
        plan: Optional[EnforcementPlan] = None,
    ) -> None:
        if plan is None:
            if not rcks:
                raise ValueError("need at least one RCK")
            plan = compile_plan(
                rcks=rcks, registry=registry, window=window
            )
        elif not plan.keys:
            raise ValueError("the given plan was compiled without RCKs")
        self.plan = plan
        self.rcks = list(plan.rcks)
        self.window = window
        self.registry = plan.registry

    @classmethod
    def from_mds(
        cls,
        sigma: Sequence[MatchingDependency],
        target: ComparableLists,
        top_k: int = 5,
        window: int = 10,
        registry: MetricRegistry = DEFAULT_REGISTRY,
    ) -> "RCKMatcher":
        """Deduce ``top_k`` RCKs from Σ and compile the matcher's plan."""
        _warn_deprecated(
            "RCKMatcher.from_mds",
            "build a repro.api.Workspace (execution mode 'direct') and "
            "call Workspace.match",
        )
        plan = compile_plan(
            sigma, target, top_k=top_k, window=window, registry=registry
        )
        matcher = cls.__new__(cls)
        matcher._init(plan=plan, window=window)
        return matcher

    def candidate_pairs(
        self, left: Relation, right: Relation
    ) -> List[Pair]:
        """Candidates from the plan's blocking backend."""
        return self.plan.candidates(left, right)

    def match(
        self,
        left: Relation,
        right: Relation,
        candidates: Optional[Sequence[Pair]] = None,
    ) -> PipelineResult:
        """Match: any RCK whose comparisons all agree declares a match."""
        if candidates is None:
            candidates = self.candidate_pairs(left, right)
        plan = self.plan
        plan.stats.pairs_compared += len(candidates)
        matches = [
            (left_tid, right_tid)
            for left_tid, right_tid in candidates
            if plan.matches_any_key(left[left_tid], right[right_tid])
        ]
        return PipelineResult(tuple(matches), tuple(candidates))


class EnforcementMatcher:
    """Matching by chasing the instances with the MDs themselves.

    Enforcement can identify pairs that no direct rule matches: updates by
    one MD enable the LHS of another (dynamic semantics).  More expensive
    than :class:`RCKMatcher` — candidate generation should narrow the pair
    space first.  The chase runs through the compiled plan's kernel
    (:meth:`~repro.plan.compile.EnforcementPlan.enforce`), sharing
    predicate dedup and the similarity cache across runs.
    """

    def __init__(
        self,
        sigma: Sequence[MatchingDependency] = (),
        target: Optional[ComparableLists] = None,
        window: int = 10,
        registry: MetricRegistry = DEFAULT_REGISTRY,
        plan: Optional[EnforcementPlan] = None,
    ) -> None:
        _warn_deprecated(
            "EnforcementMatcher",
            "build a repro.api.Workspace (execution mode 'enforce') and "
            "call Workspace.match or Workspace.enforce",
        )
        if plan is None:
            if not sigma:
                raise ValueError("need at least one MD")
            if target is None:
                raise ValueError("need a match target")
            # RCKs drive candidate generation even for the enforcement
            # matcher; compile_plan deduces them from Σ.
            plan = compile_plan(
                sigma, target, top_k=5, window=window, registry=registry
            )
        elif not plan.sigma:
            raise ValueError("the given plan was compiled without MDs")
        elif plan.target is None:
            raise ValueError("the given plan was compiled without a target")
        self.plan = plan
        self.sigma = list(plan.sigma)
        self.target = plan.target
        self.window = window
        self.registry = plan.registry

    def candidate_pairs(
        self, left: Relation, right: Relation
    ) -> List[Pair]:
        """Candidates from the plan's blocking backend."""
        return self.plan.candidates(left, right)

    def match(
        self,
        left: Relation,
        right: Relation,
        candidates: Optional[Sequence[Pair]] = None,
    ) -> PipelineResult:
        """Chase, then read off pairs whose target attributes identified."""
        if candidates is None:
            candidates = self.candidate_pairs(left, right)
        instance = InstancePair(self.target.pair, left, right)
        result = self.plan.enforce(instance, candidate_pairs=list(candidates))
        target_pairs = self.target.attribute_pairs()
        matches = [
            (left_tid, right_tid)
            for left_tid, right_tid in candidates
            if result.identified(left_tid, right_tid, target_pairs)
        ]
        return PipelineResult(tuple(matches), tuple(candidates))
