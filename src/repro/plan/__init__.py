"""The enforcement kernel: compile rules once, execute them everywhere.

MDs and RCKs are declarative; this package lowers a rule set into one
executable :class:`~repro.plan.compile.EnforcementPlan` — deduplicated
comparison predicates with metrics resolved at compile time, a value-keyed
similarity memo cache, a pluggable blocking backend, and the
enforcement-chase kernel (:mod:`repro.plan.executor`), which runs
**factorised**: candidate pairs grouped by distinct LHS value-pair
signature (:mod:`repro.plan.factorise`), one rule verdict per group
instead of per record pair — shared by the batch
matchers (:mod:`repro.matching.pipeline`), the streaming engine
(:mod:`repro.engine`), the experiments, and the CLI
(``repro plan explain``).  The chase runs serially in the calling
process; :mod:`repro.plan.shard` computes the connected components of a
candidate-pair set, which chase independently of each other.

Layering: :mod:`repro.plan` depends only on ``core``, ``metrics`` and
``relations``; the matching and engine layers depend on it, never the
other way around (``repro.core.semantics.enforce`` delegates to the
kernel through a deliberate lazy import).

Typical use::

    from repro.plan import compile_plan

    plan = compile_plan(sigma, target, top_k=5)
    pairs = plan.candidates(credit, billing)
    result = plan.enforce(instance, candidate_pairs=pairs)
    print(plan.stats.metric_evaluations, plan.stats.cache_hits)
"""

from .blocking import (
    DEFAULT_ENCODED_ATTRIBUTES,
    BlockingBackend,
    HashBlockingBackend,
    Pair,
    RCKIndex,
    RowKey,
    SortedNeighborhoodBackend,
    attribute_key,
    hash_candidates,
    indexes_from_rcks,
    leading_attribute_pairs,
    rck_sort_keys,
    window_candidates,
)
from .compile import (
    DEFAULT_CACHE_LIMIT,
    CompiledKey,
    CompiledPredicate,
    CompiledRule,
    EnforcementPlan,
    PlanStats,
    compile_plan,
)
from .executor import chase, chase_factorised
from .factorise import PairGroup, PairGroupIndex
from .shard import Shard, shard_pairs
from .sn_index import WindowedSNIndex

__all__ = [
    "BlockingBackend",
    "CompiledKey",
    "CompiledPredicate",
    "CompiledRule",
    "DEFAULT_CACHE_LIMIT",
    "DEFAULT_ENCODED_ATTRIBUTES",
    "EnforcementPlan",
    "HashBlockingBackend",
    "Pair",
    "PairGroup",
    "PairGroupIndex",
    "PlanStats",
    "RCKIndex",
    "RowKey",
    "Shard",
    "SortedNeighborhoodBackend",
    "WindowedSNIndex",
    "attribute_key",
    "chase",
    "chase_factorised",
    "compile_plan",
    "hash_candidates",
    "indexes_from_rcks",
    "leading_attribute_pairs",
    "rck_sort_keys",
    "shard_pairs",
    "window_candidates",
]
