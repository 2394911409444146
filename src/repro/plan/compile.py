"""Compile MDs and RCKs into a shared, executable :class:`EnforcementPlan`.

The paper's rules are declarative; every execution layer used to lower
them independently — the batch matchers resolved operator names per
comparison, the streaming engine re-derived the same blocking keys, and
each re-implemented the pair/rule evaluation loop.  Following the
compile-then-execute designs of factorised query engines (FDB, FAQ), this
module lowers a rule set **once**:

* every LHS conjunct and RCK atom is normalized to a
  ``(left_attr, right_attr, operator)`` triple and **deduplicated** across
  all rules — an atom shared by three MDs and two RCKs becomes one
  :class:`CompiledPredicate`, evaluated at most once per value pair;
* operator names are resolved to executable predicates through the metric
  registry **at compile time**, not per comparison;
* the plan carries a value-keyed **similarity memo cache**: a predicate
  applied twice to the same value pair (across rules, chase rounds,
  matchers, or stream ingests) is computed once and then served from the
  cache;
* the chase runs **factorised** (:mod:`repro.plan.factorise`):
  candidate pairs group by their distinct LHS value-pair signature and
  every rule verdict is computed once per group
  (:meth:`EnforcementPlan.group_verdict`), not once per record pair —
  O(distinct-value-pairs × atoms) on the hot path;
* a pluggable :class:`~repro.plan.blocking.BlockingBackend` supplies
  candidate generation, so batch and streaming share one blocking
  implementation;
* :class:`PlanStats` counts the work actually done (metric evaluations,
  cache hits, chase rounds), making "fewer evaluations than the naive
  path" a measurable claim (``benchmarks/test_plan_kernel.py``).

Both the batch matchers (:mod:`repro.matching.pipeline`) and the streaming
engine (:mod:`repro.engine.matcher`) execute through the same plan; the
reference entry point :func:`repro.core.semantics.enforce` compiles a
throwaway plan and delegates to the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.findrcks import find_rcks
from repro.core.md import MatchingDependency
from repro.core.rck import RelativeKey
from repro.core.schema import ComparableLists, SchemaPair
from repro.metrics.base import SimilarityPredicate
from repro.metrics.registry import DEFAULT_REGISTRY, EQ, MetricRegistry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.relations.relation import Relation, Row

from .blocking import BlockingBackend, Pair, SortedNeighborhoodBackend
from .executor import chase_factorised

#: Default bound on memoized (predicate, value, value) entries; the cache
#: is cleared wholesale when it fills (simple, allocation-free policy).
DEFAULT_CACHE_LIMIT = 1 << 20


@dataclass(frozen=True)
class CompiledPredicate:
    """One deduplicated comparison atom with its resolved predicate.

    ``index`` is the predicate's slot in the plan's table — compiled rules
    and keys reference predicates by slot, which is what makes sharing
    visible (and cache keys small).  ``cacheable`` marks predicates worth
    memoizing: similarity metrics cost orders of magnitude more than a
    cache probe, while plain equality is cheaper than the probe itself.
    """

    index: int
    left: str
    right: str
    operator: str
    predicate: SimilarityPredicate
    cacheable: bool = True

    def render(self) -> str:
        """Human-readable form, e.g. ``credit.FN ~dl(0.8) billing.FN``."""
        op = "=" if self.operator == EQ else f"~{self.operator}"
        return f"{self.left} {op} {self.right}"


@dataclass(frozen=True)
class CompiledRule:
    """An MD lowered to predicate slots and identification pairs."""

    name: str
    lhs: Tuple[int, ...]
    rhs: Tuple[Tuple[str, str], ...]
    source: MatchingDependency


@dataclass(frozen=True)
class CompiledKey:
    """An RCK lowered to predicate slots (a direct match rule)."""

    name: str
    predicates: Tuple[int, ...]
    source: RelativeKey


@dataclass
class PlanStats:
    """Work counters of one plan, cumulative across executions."""

    compiles: int = 0
    metric_evaluations: int = 0
    cache_hits: int = 0
    pairs_compared: int = 0
    rule_applications: int = 0
    chase_rounds: int = 0
    enforcements: int = 0
    #: Chases that hit ``max_rounds`` before reaching a fixpoint (each
    #: such chase also sets ``EnforcementResult.rounds_exhausted``; the
    #: CLI surfaces this as a warning).
    rounds_exhausted: int = 0
    #: Factorised-path counters (:mod:`repro.plan.factorise`):
    #: group-level predicate probes made while computing LHS verdicts
    #: (the factorised twin of ``metric_evaluations + cache_hits``),
    #: distinct value-pair groups built across chases, and the latest
    #: chase's pairs-per-group dedup factor.
    value_pairs_evaluated: int = 0
    groups_built: int = 0
    factorisation_ratio: float = 0.0

    def reset(self) -> None:
        """Restore every counter to 0."""
        for spec in fields(self):
            setattr(self, spec.name, spec.default)

    def as_dict(self) -> Dict[str, object]:
        """The counters as a JSON dict."""
        return dict(vars(self))


class EnforcementPlan:
    """An executable lowering of a set of MDs and RCKs.

    Built by :func:`compile_plan`; see the module docstring for what
    compilation does.  The plan is the single execution kernel shared by
    every matcher:

    * :meth:`enforce` — the chase (dynamic semantics) over a candidate
      pair set, deciding matches by cell identification;
    * :meth:`matches_any_key` — direct RCK rule matching (a pair matches
      when some key's comparisons all agree);
    * :meth:`candidates` — candidate generation through the plan's
      blocking backend.
    """

    def __init__(
        self,
        pair: SchemaPair,
        sigma: Sequence[MatchingDependency],
        rcks: Sequence[RelativeKey],
        predicates: Sequence[CompiledPredicate],
        rules: Sequence[CompiledRule],
        keys: Sequence[CompiledKey],
        registry: MetricRegistry,
        target: Optional[ComparableLists] = None,
        blocking: Optional[BlockingBackend] = None,
        atom_count: int = 0,
        cached: bool = True,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
    ) -> None:
        self.pair = pair
        self.sigma: Tuple[MatchingDependency, ...] = tuple(sigma)
        self.rcks: Tuple[RelativeKey, ...] = tuple(rcks)
        self.predicates: Tuple[CompiledPredicate, ...] = tuple(predicates)
        self.rules: Tuple[CompiledRule, ...] = tuple(rules)
        self.keys: Tuple[CompiledKey, ...] = tuple(keys)
        self.registry = registry
        self.target = target
        self.blocking = blocking
        #: Total LHS/RCK atoms before deduplication (explain reports the
        #: compression this plan achieved).
        self.atom_count = atom_count
        self.cached = cached
        self.cache_limit = cache_limit
        self.stats = PlanStats()
        #: Observability hooks (repro.obs).  The tracer defaults to the
        #: shared no-op singleton so every instrumentation point in the
        #: kernel stays unconditional; a Workspace built from a spec
        #: with tracing on swaps in a recording Tracer.  The metrics
        #: registry is always live (it is only touched at span-level
        #: granularity, never per predicate).
        self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()
        self._cache: Dict[Tuple[int, object, object], bool] = {}
        #: Ordered distinct predicate slots appearing in any rule's LHS —
        #: the axes of a factorised value-pair signature
        #: (:mod:`repro.plan.factorise`).
        ordered_slots: List[int] = []
        for rule in self.rules:
            for slot in rule.lhs:
                if slot not in ordered_slots:
                    ordered_slots.append(slot)
        self.lhs_slots: Tuple[CompiledPredicate, ...] = tuple(
            self.predicates[slot] for slot in ordered_slots
        )
        self._lhs_positions: Dict[int, int] = {
            slot: position for position, slot in enumerate(ordered_slots)
        }
        #: signature -> tuple of firing rule indices, memoized plan-wide
        #: (across groups, rounds, chases and stream ingests) under the
        #: same bound/clear policy as the similarity cache.
        self._verdicts: Dict[Tuple, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Predicate evaluation (the memoized hot path)
    # ------------------------------------------------------------------

    def evaluate(
        self, predicate: CompiledPredicate, left_value: object, right_value: object
    ) -> bool:
        """Evaluate one compiled predicate on a value pair, memoized.

        The cache is keyed by values (not tuple ids): chase repairs rewrite
        tuple values mid-run, so value keys stay correct where id keys
        would not — and equal values across different pairs share entries.
        Equality predicates and unhashable values are evaluated directly
        (the comparison is cheaper than the probe).
        """
        if not (self.cached and predicate.cacheable):
            self.stats.metric_evaluations += 1
            return bool(predicate.predicate(left_value, right_value))
        key = (predicate.index, left_value, right_value)
        try:
            cached = self._cache.get(key)
        except TypeError:
            self.stats.metric_evaluations += 1
            return bool(predicate.predicate(left_value, right_value))
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.metric_evaluations += 1
        result = bool(predicate.predicate(left_value, right_value))
        if len(self._cache) >= self.cache_limit:
            self._cache.clear()
        self._cache[key] = result
        return result

    def lhs_matches(self, rule: CompiledRule, t1: Row, t2: Row) -> bool:
        """Do two rows match the rule's LHS? (short-circuiting)"""
        for slot in rule.lhs:
            predicate = self.predicates[slot]
            if not self.evaluate(predicate, t1[predicate.left], t2[predicate.right]):
                return False
        return True

    def group_verdict(self, signature) -> Tuple[int, ...]:
        """Indices of the rules whose LHS fires on one value-pair signature.

        The factorised chase (:func:`repro.plan.executor.chase_factorised`)
        calls this once per distinct signature instead of once per record
        pair: a rule's LHS reads nothing but the signature's value pairs,
        so the verdict is a pure function of the signature and is memoized
        plan-wide.  ``stats.value_pairs_evaluated`` counts the group-level
        predicate probes actually made (a verdict-cache hit makes none) —
        the number to compare against ``metric_evaluations + cache_hits``
        of the pairwise path (``benchmarks/test_plan_factorised.py``).
        """
        try:
            cached = self._verdicts.get(signature)
            hashable = True
        except TypeError:
            cached, hashable = None, False
        if cached is not None:
            return cached
        stats = self.stats
        firing: List[int] = []
        for index, rule in enumerate(self.rules):
            for slot in rule.lhs:
                left_value, right_value = signature[self._lhs_positions[slot]]
                stats.value_pairs_evaluated += 1
                if not self.evaluate(
                    self.predicates[slot], left_value, right_value
                ):
                    break
            else:
                firing.append(index)
        verdict = tuple(firing)
        if hashable:
            if len(self._verdicts) >= self.cache_limit:
                self._verdicts.clear()
            self._verdicts[signature] = verdict
        return verdict

    def key_matches(self, key: CompiledKey, t1: Row, t2: Row) -> bool:
        """Do two rows agree on every comparison of one compiled key?"""
        for slot in key.predicates:
            predicate = self.predicates[slot]
            if not self.evaluate(predicate, t1[predicate.left], t2[predicate.right]):
                return False
        return True

    def matches_any_key(self, t1: Row, t2: Row) -> bool:
        """Direct rule matching: some RCK's comparisons all agree."""
        return any(self.key_matches(key, t1, t2) for key in self.keys)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def enforce(
        self,
        instance,
        resolver=None,
        candidate_pairs: Optional[Sequence[Pair]] = None,
        max_rounds: int = 100,
    ):
        """Run the enforcement chase in this process.

        The chase runs over distinct value-pair groups
        (:func:`repro.plan.executor.chase_factorised`): one rule verdict
        per distinct LHS signature instead of per record pair.
        """
        from repro.core.semantics import prefer_informative

        return chase_factorised(
            self,
            instance,
            resolver=resolver if resolver is not None else prefer_informative,
            candidate_pairs=candidate_pairs,
            max_rounds=max_rounds,
        )

    def candidates(self, left: Relation, right: Relation) -> List[Pair]:
        """Candidate pairs from the plan's blocking backend."""
        if self.blocking is None:
            raise ValueError("this plan was compiled without a blocking backend")
        return self.blocking.candidates(left, right)

    def clear_cache(self) -> None:
        """Drop every memoized predicate result and group verdict
        (counters are kept)."""
        self._cache.clear()
        self._verdicts.clear()

    # ------------------------------------------------------------------
    # Introspection (``repro plan explain``)
    # ------------------------------------------------------------------

    def recorded_metrics(self) -> Dict[str, List[str]]:
        """What this plan's instrumented execution will record.

        ``counters`` are the :class:`PlanStats` fields (always on);
        ``histograms`` and ``spans`` are recorded by the pipeline around
        this plan — histograms always, spans only when tracing is on
        (``observability`` in the spec, or ``--trace`` on the CLI).
        """
        return {
            "counters": [spec.name for spec in fields(PlanStats)],
            "histograms": [
                "chase.rounds", "chase.seconds", "match.seconds",
                "engine.ingest_seconds",
            ],
            "spans": [
                "compile", "match", "enforce", "blocking", "chase",
                "chase-round", "factorise", "resolve-merged",
                "stability-check", "provenance", "ingest",
            ],
        }

    def metric_binding(self, predicate: CompiledPredicate) -> str:
        """How the predicate's operator was resolved at compile time."""
        if predicate.operator == EQ:
            return "exact equality"
        name, _, theta = predicate.operator.partition("(")
        metric = self.registry.metric(name)
        return f"{type(metric).__name__} >= {theta.rstrip(')')}"

    def to_dict(self) -> Dict[str, object]:
        """The compiled plan as a JSON-serializable document."""
        return {
            "schema": {"left": self.pair.left.name, "right": self.pair.right.name},
            "predicates": [
                {
                    "index": predicate.index,
                    "left": predicate.left,
                    "right": predicate.right,
                    "operator": predicate.operator,
                    "binding": self.metric_binding(predicate),
                }
                for predicate in self.predicates
            ],
            "rules": [
                {
                    "name": rule.name,
                    "lhs": list(rule.lhs),
                    "rhs": [list(pair) for pair in rule.rhs],
                }
                for rule in self.rules
            ],
            "keys": [
                {"name": key.name, "predicates": list(key.predicates)}
                for key in self.keys
            ],
            "blocking": self.blocking.describe() if self.blocking else None,
            "atoms_before_dedup": self.atom_count,
            "unique_predicates": len(self.predicates),
            "observability": self.recorded_metrics(),
        }

    def explain(self) -> str:
        """Human-readable rendering of the compiled plan."""
        left_name = self.pair.left.name
        right_name = self.pair.right.name
        lines = [
            f"# EnforcementPlan over ({left_name}, {right_name})",
            f"# {len(self.rules)} rule(s), {len(self.keys)} key(s); "
            f"{self.atom_count} atom(s) compiled into "
            f"{len(self.predicates)} unique predicate(s)",
            "predicates:",
        ]
        for predicate in self.predicates:
            lines.append(
                f"  [{predicate.index}] {left_name}.{predicate.left} "
                f"{'=' if predicate.operator == EQ else '~' + predicate.operator} "
                f"{right_name}.{predicate.right}"
                f"  -> {self.metric_binding(predicate)}"
            )
        if self.rules:
            lines.append("rules:")
            for rule in self.rules:
                rhs = ", ".join(f"{l}<=>{r}" for l, r in rule.rhs)
                lines.append(
                    f"  {rule.name}: lhs {list(rule.lhs)} -> identify {rhs}"
                )
        if self.keys:
            lines.append("keys:")
            for key in self.keys:
                lines.append(f"  {key.name}: predicates {list(key.predicates)}")
        lines.append(
            "blocking: "
            + (self.blocking.describe() if self.blocking else "(none)")
        )
        recorded = self.recorded_metrics()
        lines.append("observability:")
        lines.append("  counters: " + ", ".join(recorded["counters"]))
        lines.append("  histograms: " + ", ".join(recorded["histograms"]))
        lines.append("  spans (with tracing on): " + ", ".join(recorded["spans"]))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnforcementPlan({len(self.rules)} rules, {len(self.keys)} keys, "
            f"{len(self.predicates)} predicates)"
        )


def compile_plan(
    sigma: Sequence[MatchingDependency] = (),
    target: Optional[ComparableLists] = None,
    rcks: Optional[Sequence[RelativeKey]] = None,
    top_k: int = 5,
    registry: MetricRegistry = DEFAULT_REGISTRY,
    blocking: Optional[BlockingBackend] = None,
    window: int = 10,
    cached: bool = True,
    cache_limit: int = DEFAULT_CACHE_LIMIT,
) -> EnforcementPlan:
    """Compile MDs (and/or RCKs) into an :class:`EnforcementPlan`.

    ``rcks=None`` with a ``target`` deduces the top ``top_k`` RCKs from
    Σ (the usual matcher path); ``target=None`` compiles a chase-only
    plan with no keys or blocking (what :func:`repro.core.semantics.enforce`
    uses).  The default blocking backend is sorted-neighborhood windowing
    on the deduced keys' attributes — pass any
    :class:`~repro.plan.blocking.BlockingBackend` to override.
    """
    sigma = list(sigma)
    if rcks is None:
        if sigma and target is not None:
            rcks = find_rcks(sigma, target, m=top_k)
        else:
            rcks = []
    else:
        rcks = list(rcks)
    if not sigma and not rcks:
        raise ValueError("need at least one MD or RCK to compile a plan")
    if target is None and rcks:
        # Every relative key carries its target; adopt it so key-only
        # plans (RCKMatcher) still get blocking and match read-off.
        target = rcks[0].target

    if sigma:
        pair = sigma[0].pair
    elif target is not None:
        pair = target.pair
    else:
        pair = rcks[0].target.pair

    slots: Dict[Tuple[str, str, str], int] = {}
    predicates: List[CompiledPredicate] = []
    atom_count = 0

    def slot_of(left: str, right: str, operator: str) -> int:
        nonlocal atom_count
        atom_count += 1
        key = (left, right, operator)
        found = slots.get(key)
        if found is not None:
            return found
        index = len(predicates)
        predicates.append(
            CompiledPredicate(
                index,
                left,
                right,
                operator,
                registry.resolve(operator),
                cacheable=operator != EQ,
            )
        )
        slots[key] = index
        return index

    rules = tuple(
        CompiledRule(
            name=f"md{position}",
            lhs=tuple(
                slot_of(atom.left, atom.right, atom.operator.name)
                for atom in dependency.lhs
            ),
            rhs=tuple(
                (atom.left, atom.right) for atom in dependency.rhs
            ),
            source=dependency,
        )
        for position, dependency in enumerate(sigma)
    )
    keys = tuple(
        CompiledKey(
            name=f"rck{position}",
            predicates=tuple(
                slot_of(atom.left, atom.right, atom.operator.name)
                for atom in key.atoms
            ),
            source=key,
        )
        for position, key in enumerate(rcks)
    )

    if blocking is None and rcks and target is not None:
        blocking = SortedNeighborhoodBackend.from_rcks(rcks, window=window)

    plan = EnforcementPlan(
        pair=pair,
        sigma=sigma,
        rcks=rcks,
        predicates=predicates,
        rules=rules,
        keys=keys,
        registry=registry,
        target=target,
        blocking=blocking,
        atom_count=atom_count,
        cached=cached,
        cache_limit=cache_limit,
    )
    # Each compile charges the new plan's own counter exactly once, so a
    # caller holding one plan can assert it was compiled once (`compiles``
    # stays 1 no matter how many executions the plan serves).
    plan.stats.compiles = 1
    return plan
