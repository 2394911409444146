"""Incremental entity resolution: match records as they arrive.

The batch pipelines (:mod:`repro.matching.pipeline`) re-block, re-compare
and re-enforce the full instance on every run.  The
:class:`IncrementalMatcher` instead keeps a warm :class:`~repro.engine.store.MatchStore`
and, for each arriving record:

1. inserts and indexes it (:meth:`~repro.engine.store.MatchStore.add`);
2. probes only the affected index buckets for the candidate neighborhood;
3. runs MD enforcement (:func:`repro.core.semantics.enforce`) on a *local
   sub-instance* containing just the new record and its neighbors — the
   delta — never copying or rescanning the full instance;
4. reads match decisions off the identified target cells, merges identity
   clusters, and re-resolves each grown cluster's target values to the
   member consensus, so later arrivals compare against the cleaned
   records (the dynamic semantics accumulating over the stream).

Per-ingest work is therefore proportional to the record's bucket
neighborhood, which is what makes streaming ingest sublinear in the store
size (asserted by ``tests/engine/test_equivalence.py`` via the store's
comparison counter).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.md import MatchingDependency
from repro.core.schema import LEFT, RIGHT, ComparableLists
from repro.core.semantics import (
    InstancePair,
    ValueResolver,
    prefer_informative,
)
from repro.matching.evaluate import Pair
from repro.plan.blocking import (
    DEFAULT_ENCODED_ATTRIBUTES,
    SortedNeighborhoodBackend,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.plan.compile import EnforcementPlan, compile_plan
from repro.relations.relation import Relation
from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry

from .store import MatchStore, Node, node_of

_SIDES = {"L": LEFT, "R": RIGHT}


def _side_tid(node: Node) -> Tuple[int, int]:
    tag, tid = node
    return _SIDES[tag], tid


def _normalize_event(event) -> Tuple[int, Dict[str, object], Optional[int]]:
    """A stream event as ``(side, values, tid)``.

    Accepts ``(side, values)`` / ``(side, values, tid)`` tuples or objects
    with ``side``, ``values`` and optionally ``tid`` attributes, such as
    :class:`repro.datagen.streams.StreamEvent`.
    """
    if isinstance(event, tuple):
        if len(event) == 2:
            side, values = event
            return side, dict(values), None
        side, values, tid = event
        return side, dict(values), tid
    return event.side, dict(event.values), getattr(event, "tid", None)


@dataclass(frozen=True)
class IngestResult:
    """Outcome of ingesting one record.

    Attributes
    ----------
    side, tid:
        Where the record landed in the store.
    candidates:
        The delta pairs actually compared (new record × neighborhood).
    matches:
        The subset declared matches by enforcement.
    merged:
        Whether any cluster merge happened (False for re-ingested
        duplicates that were already in the right cluster).
    cascade_truncated:
        True when the repair cascade hit ``max_cascade`` and left some
        repaired records' neighborhoods unexamined (never on clean data).
    """

    side: int
    tid: int
    candidates: Tuple[Pair, ...]
    matches: Tuple[Pair, ...]
    merged: bool
    cascade_truncated: bool = False


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of warm-starting a store from batch relations."""

    left_rows: int
    right_rows: int
    candidates: int
    matches: int


@dataclass
class _MergeOutcome:
    """What one record's merge phase (the cascade loop) did to the store."""

    pairs: List[Pair]
    matches: List[Pair]
    merged: bool
    rounds: int
    truncated: bool
    #: ``(side, tid)`` records whose *current values* changed (consensus
    #: repairs) — the dynamic dirt frontier
    #: :meth:`IncrementalMatcher.ingest_batch` uses to decide which later
    #: batch records may skip their chase.  Merges that repair nothing
    #: are deliberately not dirt: a chase reads values, never cluster
    #: membership, so they cannot change a later record's verdict.
    touched: Set[Tuple[int, int]]


class IncrementalMatcher:
    """Streaming counterpart of :class:`~repro.matching.pipeline.EnforcementMatcher`.

    Matching decisions use the same machinery as the batch matcher — RCK
    deduction for candidate generation and the enforcement chase for
    decisions — so a stream ingested record-by-record converges to the
    clusters the batch matcher finds on the same data with the same
    candidate keys.

    >>> # matcher = IncrementalMatcher(sigma, target, top_k=5)
    >>> # matcher.ingest(RIGHT, {"FN": "Mark", ...})
    """

    def __init__(
        self,
        sigma: Sequence[MatchingDependency] = (),
        target: Optional[ComparableLists] = None,
        top_k: int = 5,
        registry: MetricRegistry = DEFAULT_REGISTRY,
        resolver: ValueResolver = prefer_informative,
        store: Optional[MatchStore] = None,
        key_length: int = 1,
        encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
        blocking_backend: str = "hash",
        window: int = 10,
        key_pairs=None,
        max_cascade: int = 256,
        plan: Optional[EnforcementPlan] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if plan is None:
            # The raw-MD constructor predates the spec-driven API; the
            # plan-sharing form (what Workspace.stream builds) stays.
            warnings.warn(
                "constructing IncrementalMatcher from raw MDs is "
                "deprecated; build a repro.api.Workspace and call "
                "Workspace.stream()",
                DeprecationWarning,
                stacklevel=2,
            )
            if not sigma:
                raise ValueError("need at least one MD")
            if target is None:
                raise ValueError("need a match target")
            # A restored store already carries its deduced RCKs; compile
            # the plan over them so probing and matching stay consistent.
            plan = compile_plan(
                sigma,
                target,
                rcks=store.rcks if store is not None else None,
                top_k=top_k,
                registry=registry,
            )
        elif not plan.sigma or plan.target is None:
            raise ValueError("the given plan was compiled without MDs or target")
        self.plan = plan
        self.sigma = list(plan.sigma)
        self.target = plan.target
        self.registry = plan.registry
        self.resolver = resolver
        self.max_cascade = max_cascade
        if store is None:
            store = MatchStore(
                self.target,
                plan.rcks,
                key_length,
                encode_attributes,
                blocking_backend=blocking_backend,
                window=window,
                key_pairs=key_pairs,
            )
        elif store.target != self.target:
            raise ValueError("store was built for a different target")
        self.store = store
        #: Whether the store streams under sorted-neighborhood semantics
        #: (drives the engine.sn_* observability signals).
        self._sn_blocking = (
            getattr(store.blocking, "family", "hash") == "sorted-neighborhood"
        )
        self._target_pairs = self.target.attribute_pairs()
        # Observability: default to the plan's tracer/registry (a
        # Workspace hands its own to the plan), or explicit overrides.
        self.tracer = tracer if tracer is not None else getattr(
            plan, "tracer", NULL_TRACER
        )
        self.metrics = metrics if metrics is not None else getattr(
            plan, "metrics", None
        ) or MetricsRegistry()
        if tracer is not None:
            # A standalone tracer must also see the delta-chase spans the
            # plan's executor emits.
            plan.tracer = tracer
        if metrics is not None:
            plan.metrics = metrics

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------

    def ingest(
        self, side: int, values: Dict[str, object], tid: Optional[int] = None
    ) -> IngestResult:
        """Ingest one record: index, probe, enforce on the delta, merge.

        When a merge changes a cluster's consensus values (see
        :meth:`_resolve_cluster`), every repaired record's neighborhood is
        re-enforced — the streaming counterpart of the batch chase
        re-scanning its candidate pairs after a round of updates.  The
        cascade stops immediately when no merge repairs anything (the
        common, clean-data case); ``max_cascade`` bounds the number of
        record re-enforcements per ingest as a safety valve, and hitting
        it is reported via :attr:`IngestResult.cascade_truncated` and the
        ``engine.cascade_truncated`` counter.
        """
        store = self.store
        started = time.perf_counter()
        with self.tracer.span("ingest", side=side) as span:
            tid = store.add(side, values, tid=tid)
            outcome = self._merge_phase(side, tid)
            span.set("tid", tid)
            span.set("candidates", len(outcome.pairs))
            span.set("matches", len(outcome.matches))
            span.set("cascade", outcome.rounds)
        metrics = self.metrics
        metrics.observe("engine.ingest_seconds", time.perf_counter() - started)
        metrics.count("engine.ingests")
        if outcome.merged:
            metrics.count("engine.merges")
        self._gauge_store()
        # One ingest = one durable transaction (no-op for memory stores).
        store.commit()
        return IngestResult(
            side,
            tid,
            tuple(outcome.pairs),
            tuple(outcome.matches),
            outcome.merged,
            cascade_truncated=outcome.truncated,
        )

    def _merge_phase(
        self,
        side: int,
        tid: int,
        first_pairs: Optional[Sequence[Pair]] = None,
        exclude: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> _MergeOutcome:
        """One record's cascade loop: probe, chase, merge, repair, repeat.

        ``first_pairs`` supplies the record's round-1 candidate pairs when
        the caller already probed (and charged) them —
        :meth:`ingest_batch` computes them at add time so they reflect the
        store as of the record's arrival.  ``exclude`` removes not-yet
        ingested batch records from cascade re-probes, keeping every
        neighborhood identical to what a record-at-a-time ingest would
        have seen (exact for hash blocking, whose buckets are unordered
        sets; sorted-neighborhood never takes this path).
        """
        store = self.store
        all_pairs: List[Pair] = []
        all_matches: List[Pair] = []
        merged = False
        affected: Set[Tuple[int, int]] = set()
        queue: List[Tuple[int, int]] = [(side, tid)]
        queued = {(side, tid)}
        rounds = 0
        while queue and rounds < self.max_cascade:
            rounds += 1
            round_side, round_tid = queue.pop(0)
            queued.discard((round_side, round_tid))
            if first_pairs is not None:
                # Already probed and charged by the caller, at the store
                # state of the record's arrival.
                pairs: List[Pair] = list(first_pairs)
                first_pairs = None
            else:
                # Probe with arrival values: the buckets were keyed on them.
                row = store.arrival_row(round_side, round_tid)
                other_tids = store.neighbors(round_side, row)
                if self._sn_blocking:
                    self.metrics.count("engine.sn_probes")
                other_side = RIGHT if round_side == LEFT else LEFT
                if exclude:
                    other_tids = [
                        other
                        for other in other_tids
                        if (other_side, other) not in exclude
                    ]
                if round_side == LEFT:
                    pairs = [(round_tid, other) for other in other_tids]
                else:
                    pairs = [(other, round_tid) for other in other_tids]
                store.comparisons += len(pairs)
            if not pairs:
                continue
            all_pairs.extend(pairs)
            touched: List[Node] = []
            for match in self._match_pairs(pairs):
                if match not in all_matches:
                    all_matches.append(match)
                left_tid, right_tid = match
                left_node = node_of(LEFT, left_tid)
                if store.union(left_node, node_of(RIGHT, right_tid)):
                    merged = True
                    touched.append(left_node)
            for root in {store.find(node) for node in touched}:
                for changed_record in self._resolve_cluster(root):
                    affected.add(changed_record)
                    if changed_record not in queued:
                        queue.append(changed_record)
                        queued.add(changed_record)
        if queue:
            self.metrics.count("engine.cascade_truncated")
        return _MergeOutcome(
            pairs=all_pairs,
            matches=all_matches,
            merged=merged,
            rounds=rounds,
            truncated=bool(queue),
            touched=affected,
        )

    def _gauge_store(self) -> None:
        """Store growth as gauges: index/cluster size over the stream."""
        store = self.store
        metrics = self.metrics
        metrics.gauge("engine.left_rows", len(store.left))
        metrics.gauge("engine.right_rows", len(store.right))
        if self._sn_blocking:
            # Live block-run count: how far the window chain is split.
            metrics.gauge(
                "engine.sn_blocks",
                sum(
                    entry["buckets"]
                    for entry in store.blocking.index_stats().values()
                ),
            )

    def ingest_stream(self, events: Iterable) -> List[IngestResult]:
        """Ingest a sequence of events in arrival order.

        Events are ``(side, values)`` tuples or objects with ``side``,
        ``values`` and (optionally) ``tid`` attributes, such as
        :class:`repro.datagen.streams.StreamEvent`.
        """
        results: List[IngestResult] = []
        for event in events:
            side, values, tid = _normalize_event(event)
            results.append(self.ingest(side, values, tid=tid))
        return results

    def ingest_batch(self, events: Iterable) -> List[IngestResult]:
        """Ingest a micro-batch of events with one pooled screening chase.

        Semantically this is exactly :meth:`ingest` applied to the events
        in order — same final store state, same per-event results, same
        ``comparisons``/``merges`` counters, pinned by the batch-boundary
        invariance property test (``tests/serve/test_batch_invariance.py``)
        and the service differential suite — but the work is amortized:

        1. every record is added and its arrival neighborhood probed (and
           charged) as it would have been record-at-a-time;
        2. **one** pooled chase screens the union of all delta pairs;
        3. only records with skin in the game — one of their *own* pairs
           matched in the screen, or one of their involved records had
           its values moved by a chase repair (before or during the
           batch) — replay the exact per-record merge phase.

        A record with no own-pair match and no moved neighbor is sound
        to skip without its own chase: with every involved value
        unchanged, the chase is purely monotone cell identification, so
        the pooled screen's verdict over the superset of pairs subsumes
        what the record's own delta chase could have found — and with no
        match among its own pairs there is no merge to apply.

        Sorted-neighborhood stores fall back to plain sequential ingest
        (ranks shift with every insertion, so a batch added up front
        cannot reproduce record-at-a-time windows); they still amortize
        the durable commit.  One ``commit()`` covers the whole batch, so
        a crash re-presents the batch as a unit instead of splitting it.
        """
        normalized = [_normalize_event(event) for event in events]
        if not normalized:
            return []
        store = self.store
        metrics = self.metrics
        started = time.perf_counter()
        if self._sn_blocking or len(normalized) == 1:
            results = []
            for side, values, tid in normalized:
                results.append(self.ingest(side, values, tid=tid))
            metrics.count("engine.batches")
            metrics.observe("engine.batch_size", len(results))
            metrics.observe(
                "engine.batch_seconds", time.perf_counter() - started
            )
            return results
        with self.tracer.span("ingest_batch", size=len(normalized)) as span:
            # Phase 1: add every record and capture its arrival-time
            # neighborhood — the store grows between probes exactly as it
            # would record-at-a-time, so each pair set (and its
            # comparisons charge) is what sequential ingest computes.
            pending: List[Tuple[int, int, List[Pair]]] = []
            for side, values, tid in normalized:
                tid = store.add(side, values, tid=tid)
                row = store.arrival_row(side, tid)
                other_tids = store.neighbors(side, row)
                if side == LEFT:
                    pairs: List[Pair] = [(tid, other) for other in other_tids]
                else:
                    pairs = [(other, tid) for other in other_tids]
                store.comparisons += len(pairs)
                pending.append((side, tid, pairs))
            # Phase 2: one pooled chase over the whole batch delta.
            union: List[Pair] = []
            seen: Set[Pair] = set()
            for _, _, pairs in pending:
                for pair in pairs:
                    if pair not in seen:
                        seen.add(pair)
                        union.append(pair)
            screen_matches: Set[Pair] = set()
            dirty: Set[Tuple[int, int]] = set()
            if union:
                matched_pairs, dirty = self._screen_pairs(union)
                screen_matches = set(matched_pairs)
            # Phase 3: replay the exact merge phase for records adjacent
            # to dirt; skip the rest.  ``later`` shrinks as the batch is
            # walked so cascade re-probes never see a record that had not
            # arrived yet.
            later: Set[Tuple[int, int]] = {
                (side, tid) for side, tid, _ in pending
            }
            results = []
            merges = 0
            chased = 0
            for side, tid, pairs in pending:
                later.discard((side, tid))
                involved = {(side, tid)}
                for left_tid, right_tid in pairs:
                    involved.add((LEFT, left_tid))
                    involved.add((RIGHT, right_tid))
                replay = pairs and (
                    any(pair in screen_matches for pair in pairs)
                    or not involved.isdisjoint(dirty)
                )
                if replay:
                    chased += 1
                    outcome = self._merge_phase(
                        side, tid, first_pairs=pairs, exclude=frozenset(later)
                    )
                    dirty |= outcome.touched
                    result = IngestResult(
                        side,
                        tid,
                        tuple(outcome.pairs),
                        tuple(outcome.matches),
                        outcome.merged,
                        cascade_truncated=outcome.truncated,
                    )
                else:
                    result = IngestResult(side, tid, tuple(pairs), (), False)
                if result.merged:
                    merges += 1
                results.append(result)
            span.set("size", len(results))
            span.set("chased", chased)
            span.set("merged", merges)
        metrics.observe("engine.batch_seconds", time.perf_counter() - started)
        metrics.count("engine.batches")
        metrics.observe("engine.batch_size", len(results))
        metrics.count("engine.ingests", len(results))
        if merges:
            metrics.count("engine.merges", merges)
        self._gauge_store()
        # One micro-batch = one durable transaction.
        store.commit()
        return results

    # ------------------------------------------------------------------
    # Batch warm-start
    # ------------------------------------------------------------------

    def bootstrap(
        self,
        left: Relation,
        right: Relation,
        preserve_tids: bool = True,
        window: Optional[int] = None,
    ) -> BootstrapResult:
        """Warm-start an empty store from existing batch relations.

        Candidate generation runs through the store's hash-blocking
        backend (the same one batch pipelines use), optionally unioned
        with a sorted-neighborhood pass of the given ``window`` — then a
        single enforcement chase matches the candidates and seeds the
        clusters.
        """
        store = self.store
        if len(store.left) or len(store.right):
            raise ValueError("bootstrap requires an empty store")
        for row in left.rows():
            store.add(LEFT, row.values(), tid=row.tid if preserve_tids else None)
        for row in right.rows():
            store.add(RIGHT, row.values(), tid=row.tid if preserve_tids else None)
        pairs = set(store.blocking.candidates(store.left, store.right))
        if window is not None:
            sn = SortedNeighborhoodBackend.from_rcks(store.rcks, window=window)
            pairs.update(sn.candidates(store.left, store.right))
        ordered = sorted(pairs)
        store.comparisons += len(ordered)
        matches = self._match_pairs(ordered) if ordered else []
        touched: List[Node] = []
        for left_tid, right_tid in matches:
            left_node = node_of(LEFT, left_tid)
            if store.union(left_node, node_of(RIGHT, right_tid)):
                touched.append(left_node)
        for root in {store.find(node) for node in touched}:
            self._resolve_cluster(root)
        store.commit()
        return BootstrapResult(
            left_rows=len(store.left),
            right_rows=len(store.right),
            candidates=len(ordered),
            matches=len(matches),
        )

    # ------------------------------------------------------------------
    # Delta enforcement
    # ------------------------------------------------------------------

    def _match_pairs(self, pairs: Sequence[Pair]) -> List[Pair]:
        """Decide the delta pairs by local enforcement; no store side effects.

        Every pair is chased over the involved records' *arrival* values —
        the batch chase evaluates every candidate pair on pristine values
        in its first round, and this keeps that guarantee under streaming
        (a consensus repair can never destroy evidence two records arrived
        with).  When some involved record's current values differ from its
        arrivals (a consensus repaired it), a second chase over the
        current values adds the matches that only repairs enable — the
        streaming analogue of the batch chase's later rounds.
        """
        matches = self._chase(pairs, use_arrival=True)
        store = self.store
        repaired = any(
            store.relation(side)[tid].values() != store.arrival_values(side, tid)
            for side, tids in (
                (LEFT, {left_tid for left_tid, _ in pairs}),
                (RIGHT, {right_tid for _, right_tid in pairs}),
            )
            for tid in tids
        )
        if repaired:
            for match in self._chase(pairs, use_arrival=False):
                if match not in matches:
                    matches.append(match)
        return matches

    def _screen_pairs(
        self, pairs: Sequence[Pair]
    ) -> Tuple[List[Pair], Set[Tuple[int, int]]]:
        """Pooled pre-chase over a batch's delta: matches plus the dirt set.

        Mirrors :meth:`_match_pairs` (arrival chase, plus a current-values
        chase when any involved record is repaired) but additionally
        reports every ``(side, tid)`` whose chased values differ from its
        inputs — the *value dirt*.  Match endpoints whose values did not
        move are deliberately not dirt: a chase reads values, never
        cluster membership, so a merge that repairs nothing cannot change
        a neighbor's verdict.  A record none of whose own pairs matched
        and none of whose involved records moved is sound to skip — with
        all involved values fixed, cell identification is monotone in the
        pair set, so the pooled chase (which ran every chase variant a
        per-record :meth:`_match_pairs` would have) subsumes each
        record's own delta chase — which is what lets
        :meth:`ingest_batch` skip their per-record chase.
        """
        store = self.store
        matches, changed = self._chase(
            pairs, use_arrival=True, collect_changed=True
        )
        involved = {(LEFT, left_tid) for left_tid, _ in pairs} | {
            (RIGHT, right_tid) for _, right_tid in pairs
        }
        repaired = any(
            store.relation(side)[tid].values()
            != store.arrival_values(side, tid)
            for side, tid in involved
        )
        if repaired:
            # Union-wide trigger where _match_pairs triggers per record —
            # a superset of the chases any single record would run, so
            # the screen's verdict still subsumes each of them.
            second, second_changed = self._chase(
                pairs, use_arrival=False, collect_changed=True
            )
            for match in second:
                if match not in matches:
                    matches.append(match)
            changed |= second_changed
        return matches, changed

    def _chase(
        self,
        pairs: Sequence[Pair],
        use_arrival: bool,
        collect_changed: bool = False,
    ):
        """One enforcement chase over a local sub-instance of the delta.

        The sub-instance holds only the tuples occurring in ``pairs`` (ids
        preserved), so the chase never copies or rescans the full store —
        its cost is bounded by the delta.  A pair matches when the chase
        identified all target cells, exactly the batch matcher's decision
        rule: both run :meth:`EnforcementPlan.enforce` on the same
        compiled rules, and the plan's similarity cache persists across
        ingests (a stream of near-duplicates keeps hitting it).  The
        plan's group-verdict cache persists the same way: a delta whose
        pairs present already-seen value-pair signatures costs zero
        predicate probes.
        """
        store = self.store
        involved_left = sorted({left_tid for left_tid, _ in pairs})
        involved_right = sorted({right_tid for _, right_tid in pairs})
        local_left = Relation(store.pair.left)
        local_right = Relation(store.pair.right)
        for local, stored, side, tids in (
            (local_left, store.left, LEFT, involved_left),
            (local_right, store.right, RIGHT, involved_right),
        ):
            for tid in tids:
                values = (
                    store.arrival_values(side, tid)
                    if use_arrival
                    else stored[tid].values()
                )
                local.insert(values, tid=tid)
        instance = InstancePair(store.pair, local_left, local_right)
        result = self.plan.enforce(
            instance,
            resolver=self.resolver,
            candidate_pairs=list(pairs),
        )
        matches = [
            (left_tid, right_tid)
            for left_tid, right_tid in pairs
            if result.identified(left_tid, right_tid, self._target_pairs)
        ]
        if not collect_changed:
            return matches
        # Which involved records did the chase move?  Compare the chased
        # extension against the values the sub-instance was built from.
        changed: Set[Tuple[int, int]] = set()
        for out, stored, side, tids in (
            (result.instance.left, store.left, LEFT, involved_left),
            (result.instance.right, store.right, RIGHT, involved_right),
        ):
            for tid in tids:
                baseline = (
                    store.arrival_values(side, tid)
                    if use_arrival
                    else stored[tid].values()
                )
                if out[tid].values() != baseline:
                    changed.add((side, tid))
        return matches, changed

    def _resolve_cluster(self, node: Node) -> List[Tuple[int, int]]:
        """Re-resolve a cluster's target values to the member consensus.

        For every identified attribute pair, the resolver picks one value
        from the *arrival* values of all cluster members, and that
        consensus becomes every member's current value — the streaming
        analogue of the batch chase resolving each merged cell class.
        Resolving from arrival values keeps the outcome independent of
        arrival order (the same member multiset always yields the same
        consensus, where chaining pairwise repairs would not).

        Returns the ``(side, tid)`` records whose current values changed —
        their neighborhoods must be re-examined by the caller.
        """
        store = self.store
        members = store.cluster_nodes(*_side_tid(node))
        if len(members) < 2:
            return []
        lefts = sorted(tid for tag, tid in members if tag == "L")
        rights = sorted(tid for tag, tid in members if tag == "R")
        changed: List[Tuple[int, int]] = []
        changed_seen = set()
        for left_attr, right_attr in self._target_pairs:
            values = [
                store.arrival_values(LEFT, tid)[left_attr] for tid in lefts
            ] + [
                store.arrival_values(RIGHT, tid)[right_attr] for tid in rights
            ]
            resolved = self.resolver(values)
            for side, tids, attribute in (
                (LEFT, lefts, left_attr),
                (RIGHT, rights, right_attr),
            ):
                relation = store.relation(side)
                for tid in tids:
                    if relation[tid][attribute] != resolved:
                        relation.set_value(tid, attribute, resolved)
                        if (side, tid) not in changed_seen:
                            changed_seen.add((side, tid))
                            changed.append((side, tid))
        return changed
