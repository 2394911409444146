"""The dynamic semantics of MDs (Section 2.1) and the enforcement chase.

An MD does not constrain a single instance: a *pair* ``(D, D')`` of
instances of ``(R1, R2)`` with ``D ⊑ D'`` satisfies φ when for every tuple
pair ``(t1, t2)`` matching LHS(φ) in ``D``,

(a) ``t1[Z1] = t2[Z2]`` in ``D'`` (the RHS attributes got identified), and
(b) ``(t1, t2)`` still match LHS(φ) in ``D'``.

An instance ``D`` is *stable* for Σ when ``(D, D) ⊨ Σ`` — a fixpoint of
enforcement.  Deduction (Σ ⊨m φ) quantifies over stable instances; the
:func:`enforce` chase below constructs one, which is how MDs are actually
*used* to match records: two tuples are declared a match when enforcement
identified their target attributes.

Enforcement merges *cells* — (side, tuple id, attribute) triples — with a
union-find, then assigns every merged class a single value chosen by a
:data:`ValueResolver` policy.  Merging is monotone, so the chase
terminates; stability of the result is re-checked (and returned), because
a resolver that changes a value may in principle break a similarity that
an earlier rule application relied on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.metrics.registry import DEFAULT_REGISTRY, MetricRegistry
from repro.relations.relation import Relation

from .md import MatchingDependency
from .schema import LEFT, RIGHT, SchemaPair

#: A cell of an instance pair: (side, tuple id, attribute name).
Cell = Tuple[int, int, str]

#: Policy choosing the value a merged cell class takes.  Receives the
#: multiset of current values (nulls included) and returns the resolved one.
ValueResolver = Callable[[Sequence[object]], object]


def prefer_informative(values: Sequence[object]) -> object:
    """Default resolver: longest non-null value, then most frequent.

    The matching operator only requires the cells to be *identified*
    (Example 2.2: "does not specify how they are updated"), so the
    resolver is a policy choice.  Preferring the longest value keeps the
    most informative variant ("10 Oak Street, MH, NJ 07974" over the
    truncated "NJ") even when damaged copies outnumber it; frequency then
    lexicographic order break ties deterministically.
    """
    non_null = [value for value in values if value is not None]
    if not non_null:
        return None
    counts: Dict[object, int] = {}
    for value in non_null:
        counts[value] = counts.get(value, 0) + 1
    return max(
        counts,
        key=lambda value: (len(str(value)), counts[value], str(value)),
    )


@dataclass(frozen=True)
class InstancePair:
    """An instance ``D = (I1, I2)`` of a schema pair.

    ``left`` and ``right`` may be the *same* Relation object when matching
    a relation against itself (deduplication); cells are still qualified by
    side, mirroring the qualified attributes of the reasoning layer.
    """

    pair: SchemaPair
    left: Relation
    right: Relation

    def __post_init__(self) -> None:
        if self.left.schema != self.pair.left:
            raise ValueError("left relation schema does not match the pair")
        if self.right.schema != self.pair.right:
            raise ValueError("right relation schema does not match the pair")

    def copy(self) -> "InstancePair":
        """An extension-ready copy (same tuple ids, fresh storage)."""
        if self.left is self.right:
            shared = self.left.copy()
            return InstancePair(self.pair, shared, shared)
        return InstancePair(self.pair, self.left.copy(), self.right.copy())

    def extends(self, original: "InstancePair") -> bool:
        """``original ⊑ self`` componentwise."""
        return self.left.extends(original.left) and self.right.extends(
            original.right
        )

    def tuple_pairs(self) -> Iterable[Tuple[int, int]]:
        """All ``(t1, t2) ∈ D`` as (left tid, right tid) pairs.

        When both sides are the same relation (self-matching), reflexive
        pairs are skipped and each unordered pair is reported once.
        """
        if self.left is self.right:
            tids = self.left.tids()
            for position, tid1 in enumerate(tids):
                for tid2 in tids[position + 1 :]:
                    yield tid1, tid2
        else:
            for tid1 in self.left.tids():
                for tid2 in self.right.tids():
                    yield tid1, tid2


def lhs_matches(
    dependency: MatchingDependency,
    instance: InstancePair,
    left_tid: int,
    right_tid: int,
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """Do ``(t1, t2)`` match LHS(φ) in the given instance?

    Every conjunct ``R1[X1[j]] ≈_j R2[X2[j]]`` must hold for the tuples'
    current values, with operators resolved through ``registry``.
    """
    t1 = instance.left[left_tid]
    t2 = instance.right[right_tid]
    for atom in dependency.lhs:
        predicate = registry.resolve(atom.operator.name)
        if not predicate(t1[atom.left], t2[atom.right]):
            return False
    return True


def satisfies(
    original: InstancePair,
    extended: InstancePair,
    dependency: MatchingDependency,
    registry: MetricRegistry = DEFAULT_REGISTRY,
    candidate_pairs: Optional[Iterable[Tuple[int, int]]] = None,
) -> bool:
    """``(D, D') ⊨ φ`` per the paper's Section 2.1 definition.

    ``candidate_pairs`` restricts the check to the given tuple pairs (all
    pairs when omitted — quadratic, intended for tests and small data).
    """
    if not extended.extends(original):
        return False
    pairs = candidate_pairs if candidate_pairs is not None else original.tuple_pairs()
    for left_tid, right_tid in pairs:
        if not lhs_matches(dependency, original, left_tid, right_tid, registry):
            continue
        # (a) RHS identified in D'.
        t1 = extended.left[left_tid]
        t2 = extended.right[right_tid]
        for atom in dependency.rhs:
            if t1[atom.left] != t2[atom.right]:
                return False
        # (b) LHS still matched in D'.
        if not lhs_matches(dependency, extended, left_tid, right_tid, registry):
            return False
    return True


def satisfies_all(
    original: InstancePair,
    extended: InstancePair,
    sigma: Iterable[MatchingDependency],
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """``(D, D') ⊨ Σ``: satisfaction of every MD in Σ."""
    return all(
        satisfies(original, extended, dependency, registry)
        for dependency in sigma
    )


def is_stable(
    instance: InstancePair,
    sigma: Iterable[MatchingDependency],
    registry: MetricRegistry = DEFAULT_REGISTRY,
) -> bool:
    """Is ``D`` stable for Σ, i.e. ``(D, D) ⊨ Σ``?"""
    return satisfies_all(instance, instance, sigma, registry)


class _CellUnionFind:
    """Union-find over instance cells, tracking class members."""

    def __init__(self) -> None:
        self._parent: Dict[Cell, Cell] = {}
        self._members: Dict[Cell, Set[Cell]] = {}

    def find(self, cell: Cell) -> Cell:
        parent = self._parent
        if cell not in parent:
            parent[cell] = cell
            self._members[cell] = {cell}
            return cell
        root = cell
        while parent[root] != root:
            root = parent[root]
        while parent[cell] != root:
            parent[cell], cell = root, parent[cell]
        return root

    def union(self, a: Cell, b: Cell) -> bool:
        """Merge the classes of ``a`` and ``b``; True when they differed."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        if len(self._members[root_a]) < len(self._members[root_b]):
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._members[root_a] |= self._members.pop(root_b)
        return True

    def members(self, cell: Cell) -> Set[Cell]:
        """All cells in the class of ``cell``."""
        return set(self._members[self.find(cell)])

    def classes(self) -> List[Set[Cell]]:
        """Every merged class with more than one member.

        Singleton classes (cells only ever touched by :meth:`find`) carry
        no identification and are omitted; the chase property and
        differential suites compare kernels' identifications through
        this view.
        """
        return [
            set(members)
            for members in self._members.values()
            if len(members) > 1
        ]

    def same(self, a: Cell, b: Cell) -> bool:
        """Whether the two cells are currently in one class."""
        return self.find(a) == self.find(b)


@dataclass
class EnforcementResult:
    """Outcome of :func:`enforce`.

    Attributes
    ----------
    instance:
        The resulting extension ``D'``.
    stable:
        Whether ``(D', D') ⊨ Σ`` — true in all but adversarial resolver
        cases; callers that need a guarantee should assert it.
    rounds:
        Number of chase rounds executed.
    merged_cells:
        The cell union-find after the chase, exposing which cells were
        identified (the matcher reads match decisions from it).
    applications:
        Count of successful rule applications (new cell merges).
    rounds_exhausted:
        True when the chase stopped because ``max_rounds`` ran out while
        merges were still happening *and* the result is not stable — a
        partial extension, not a fixpoint (``rounds_exhausted`` implies
        ``not stable``; a chase that converged on its last permitted
        round is not exhausted).  Previously this case was silent;
        callers that bound the chase should check (or assert) this flag.
    """

    instance: InstancePair
    stable: bool
    rounds: int
    merged_cells: _CellUnionFind
    applications: int
    rounds_exhausted: bool = False

    def identified(
        self, left_tid: int, right_tid: int, attribute_pairs: Iterable[Tuple[str, str]]
    ) -> bool:
        """Were all the given attribute pairs of the two tuples identified?"""
        return all(
            self.merged_cells.same(
                (LEFT, left_tid, left_attr), (RIGHT, right_tid, right_attr)
            )
            for left_attr, right_attr in attribute_pairs
        )


def enforce(
    instance: InstancePair,
    sigma: Sequence[MatchingDependency],
    registry: MetricRegistry = DEFAULT_REGISTRY,
    resolver: ValueResolver = prefer_informative,
    candidate_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    max_rounds: int = 100,
) -> EnforcementResult:
    """Chase ``instance`` with Σ to a stable extension.

    This is the *reference entry point*: it compiles Σ into a throwaway
    :class:`~repro.plan.compile.EnforcementPlan` and delegates to the one
    chase kernel (:func:`repro.plan.executor.chase_factorised`).
    Matchers that chase repeatedly hold a long-lived plan instead and call
    :meth:`~repro.plan.compile.EnforcementPlan.enforce` directly, sharing
    the compiled predicates and the similarity memo cache across runs.

    ``candidate_pairs`` bounds the quadratic pair scan; matchers pass the
    output of blocking/windowing here.
    """
    # Deliberate lazy import: repro.plan sits above repro.core in the
    # layering and imports this module for the chase's data structures.
    from repro.plan.compile import compile_plan

    plan = compile_plan(sigma=sigma, registry=registry)
    return plan.enforce(
        instance,
        resolver=resolver,
        candidate_pairs=candidate_pairs,
        max_rounds=max_rounds,
    )


def _cell_value(instance: InstancePair, cell: Cell, shared: bool) -> object:
    # When both sides share one Relation object, side only tags the cell;
    # reads and writes land in the same storage either way.
    side, tid, attribute = cell
    relation = instance.left if side == LEFT else instance.right
    return relation[tid][attribute]
