"""Factorised representation of a candidate-pair comparison space.

The chase evaluates rule LHSs over *record pairs*, but the LHS of a
compiled rule reads only the attribute values its predicate slots name.
On duplicate-heavy data (the workloads of Fan et al.) many record pairs
present the same tuple of LHS value pairs, so — following factorised
relational databases (FDB) and the FAQ line — the comparison space is
represented here *by distinct values* instead of by record pairs:

* the **signature** of a candidate pair is the tuple of
  ``(left_value, right_value)`` per LHS predicate slot
  (:attr:`EnforcementPlan.lhs_slots <repro.plan.compile.EnforcementPlan>`);
* a :class:`PairGroupIndex` groups the candidate pairs by signature, so a
  rule's LHS verdict is computed **once per distinct signature**
  (:meth:`~repro.plan.compile.EnforcementPlan.group_verdict`) and only
  firing groups are expanded back to record pairs;
* a consensus repair changes a tuple's values, so :meth:`PairGroupIndex.migrate`
  moves that tuple's pairs to their re-computed signature groups
  incrementally — the factorisation is never rebuilt mid-chase.

Grouping is global over the flat candidate list the blocking backend
emits; pairs from different blocks that happen to share a signature share
a group (a strict superset of per-block grouping, same verdicts).
:func:`repro.plan.executor.chase_factorised` drives the chase over this
index; :meth:`PairGroupIndex.expand` recovers exactly the original pair
set (a Hypothesis property pins this).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.semantics import InstancePair

from .blocking import Pair

#: One ``(left_value, right_value)`` entry per LHS predicate slot.
Signature = Tuple[Tuple[object, object], ...]


class PairGroup:
    """All candidate pairs currently presenting one value-pair signature.

    ``pairs`` is an insertion-ordered set (a dict with ``None`` values):
    membership changes as repairs migrate pairs, and iteration order must
    stay deterministic for the chase's union order to be reproducible.
    """

    __slots__ = ("key", "signature", "pairs")

    def __init__(self, key: object, signature: Signature) -> None:
        self.key = key
        self.signature = signature
        self.pairs: Dict[Pair, None] = {}

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PairGroup({len(self.pairs)} pairs, signature={self.signature!r})"


class PairGroupIndex:
    """Candidate pairs grouped by their LHS value-pair signature.

    Built once per chase over the *working* instance; kept current by
    :meth:`migrate` as repairs rewrite tuple values.  The signature axes
    are the plan's :attr:`lhs_slots`, so two pairs share a group exactly
    when every rule's LHS verdict is identical for them.
    """

    def __init__(
        self,
        plan,
        instance: InstancePair,
        pairs: Iterable[Pair] = (),
    ) -> None:
        self._signature = plan.signature
        #: signature (or fallback key) -> group, insertion-ordered.
        self.groups: Dict[object, PairGroup] = {}
        self._group_of: Dict[Pair, PairGroup] = {}
        for pair in pairs:
            self.add(instance, pair)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def group_count(self) -> int:
        """Number of distinct-signature groups."""
        return len(self.groups)

    @property
    def pair_count(self) -> int:
        """Number of candidate pairs across all groups."""
        return len(self._group_of)

    @property
    def ratio(self) -> float:
        """Pairs per group — the dedup factor the factorisation achieved."""
        return self.pair_count / self.group_count if self.groups else 0.0

    # ------------------------------------------------------------------
    # Construction and maintenance
    # ------------------------------------------------------------------

    def signature(self, instance: InstancePair, pair: Pair) -> Signature:
        """The value-pair tuple ``pair`` presents on the LHS slots."""
        left_tid, right_tid = pair
        return self._signature(instance.left[left_tid], instance.right[right_tid])

    def add(self, instance: InstancePair, pair: Pair) -> PairGroup:
        """Insert one pair under its current signature."""
        return self._place(pair, self.signature(instance, pair))

    def _place(self, pair: Pair, signature: Signature) -> PairGroup:
        try:
            hash(signature)
            key: object = signature
        except TypeError:
            # An unhashable value (e.g. a list cell) cannot share a
            # group; a per-pair key keeps it correct, just unfactorised.
            key = ("__unhashable__", pair)
        group = self.groups.get(key)
        if group is None:
            group = PairGroup(key, signature)
            self.groups[key] = group
        group.pairs[pair] = None
        self._group_of[pair] = group
        return group

    def migrate(
        self, instance: InstancePair, pairs: Sequence[Pair]
    ) -> List[PairGroup]:
        """Re-signature the given pairs against current instance values.

        Each pair whose signature changed moves to its new group (created
        on demand; emptied groups are dropped).  Returns the distinct
        groups now holding the given pairs, in first-touched order — the
        factorised chase's next active set.
        """
        touched: Dict[object, PairGroup] = {}
        for pair in pairs:
            old = self._group_of[pair]
            signature = self.signature(instance, pair)
            if signature == old.signature:
                group = old
            else:
                del old.pairs[pair]
                if not old.pairs:
                    del self.groups[old.key]
                group = self._place(pair, signature)
            touched.setdefault(group.key, group)
        return list(touched.values())

    def expand(self) -> List[Pair]:
        """Every candidate pair, recovered from the groups.

        Exactly the set of pairs inserted (and never removed) — grouping
        and migration lose nothing; ``tests/plan/test_factorised_equivalence.py``
        holds this as a Hypothesis property.
        """
        return [
            pair for group in self.groups.values() for pair in group.pairs
        ]
