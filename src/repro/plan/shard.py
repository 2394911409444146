"""Partition candidate pairs into independently chaseable components.

The chase (:mod:`repro.plan.executor`) only ever touches cells of tuples
that appear in some candidate pair: a rule application merges cells of
the two paired tuples, and the per-round repair rewrites only cells of
merged classes.  Two candidate pairs that share no tuple therefore
cannot influence each other — the connected components of the pair
graph (tuples as nodes, candidate pairs as edges) chase to exactly the
same merges, repairs and stability verdicts whether they run in one
loop or in isolation.  This chase-locality property is pinned by
``tests/plan/test_chase_properties.py``; the resolver only ever sees
one merged class, which never spans components.

:func:`shard_pairs` computes the components deterministically: same
pairs in, same shards out.  ``repro plan explain --left A --right B``
reports their count as ``blocks``.

Every blocking backend decomposes the same way.  Hash candidates split
per bucket; sorted-neighborhood candidates from the rank-encoded
:class:`~repro.plan.sn_index.WindowedSNIndex` split per block run,
because the index splits its runs at block boundaries and windows never
span one.  (The legacy batch SN backend's overlapping windows chained
everything into a single component.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.schema import LEFT, RIGHT

from .blocking import Pair

#: A shard node: (side, tuple id) — or (LEFT, tid) for both occurrences
#: of a tuple when the instance is shared (self-matching).
_Node = Tuple[int, int]


@dataclass(frozen=True)
class Shard:
    """One connected component of the candidate-pair graph.

    ``pairs`` keeps the input ordering (the chase scans pairs in order,
    so chasing one component alone replays the full scan order
    restricted to it); the tid sets say which tuples the component
    touches.
    """

    pairs: Tuple[Pair, ...]
    left_tids: FrozenSet[int]
    right_tids: FrozenSet[int]

    def __len__(self) -> int:
        return len(self.pairs)


def shard_pairs(pairs: Sequence[Pair], shared: bool = False) -> List[Shard]:
    """The connected components of the candidate pairs, as shards.

    ``shared`` marks a self-matching instance (both sides are one
    relation): the same tid on either side is then one node, so a tuple
    appearing as left in one pair and right in another correctly pulls
    both pairs into one shard.

    Shards are ordered by the position of their first pair in the input,
    and each shard's pairs keep their input order — a serial chase over
    the concatenation of all shards scans pairs exactly like a serial
    chase over the input.
    """
    parent: Dict[_Node, _Node] = {}

    def find(node: _Node) -> _Node:
        root = parent.setdefault(node, node)
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def node_of(side: int, tid: int) -> _Node:
        return (LEFT, tid) if shared else (side, tid)

    for left_tid, right_tid in pairs:
        root_a = find(node_of(LEFT, left_tid))
        root_b = find(node_of(RIGHT, right_tid))
        if root_a != root_b:
            parent[root_b] = root_a

    grouped: Dict[_Node, List[Pair]] = {}
    for pair in pairs:
        grouped.setdefault(find(node_of(LEFT, pair[0])), []).append(pair)

    shards = []
    for component in grouped.values():
        left_tids = frozenset(left_tid for left_tid, _ in component)
        right_tids = frozenset(right_tid for _, right_tid in component)
        shards.append(Shard(tuple(component), left_tids, right_tids))
    return shards

