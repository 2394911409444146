"""Window-encoded sorted-neighborhood index: rank ranges over block runs.

The legacy :class:`~repro.plan.blocking.SortedNeighborhoodBackend` is
batch-only — it sorts the merged sequence from scratch per call, and its
overlapping windows chain every pair into a single connected component.
The streaming engine could not use it at all, which is how
sorted-neighborhood specs ended up silently streaming under *hash*
semantics.

:class:`WindowedSNIndex` fixes both by maintaining a **rank encoding** of
each pass's sort keys, in the spirit of pre/post-order tree encodings
that turn traversals into range scans:

* every element is kept at its rank in a sorted run of
  ``(key, side, tid)`` entries, maintained incrementally by binary
  insertion on :meth:`add` — the merged sequence never re-sorts;
* a window is a **rank-range query**: :meth:`probe` bisects to the
  record's rank and scans the ±(window−1) rank interval around it;
* the sorted sequence is **split at block boundaries** — runs are
  partitioned by the leading key component (the encoded leading
  attribute), and windows never span a boundary.  Adjacent windows in
  different blocks therefore share no pairs, and sorted-neighborhood
  workloads decompose into many connected components
  (:func:`repro.plan.shard.shard_pairs`) that chase independently.

Block confinement alone would be lossy: two records that disagree on the
leading attribute (a typo'd first name, say) can never share a block, no
matter how similar the rest of their key is.  The classic remedy is
**multi-pass** sorted-neighborhood, and the index applies it: with key
``pairs`` (a1, a2, …, an), pass *i* sorts by the rotation
(aᵢ, …, an, a1, …, aᵢ₋₁), so every keyed attribute leads exactly one
pass and blocks one partition.  A candidate pair survives if the two
records agree on the encoded leading value of *any* pass — dropped pairs
disagree on **every** keyed attribute's encoded value, and such pairs
were never going to satisfy an RCK built from those comparisons.

Streaming and batch agree by construction on the *final* state: a run's
layout depends only on the key/side/tid triples, never on arrival order,
so :meth:`scan_candidates` over a live index equals :meth:`candidates`
over the same rows.  At-arrival probes are a refinement, not an exact
prefix of the batch set: a probe sees the window over the elements
*currently* ranked, so two records may sit within one window early in the
stream and drift apart as later arrivals rank between them.  Drifted
pairs are extra *comparisons* (within one block, hence one leading key
class), and the differential suite pins that the decided matches and
clusters still converge to the batch run's.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.rck import RelativeKey
from repro.core.schema import LEFT
from repro.metrics.soundex import soundex
from repro.plan.blocking import (
    _LEFT,
    _RIGHT,
    DEFAULT_ENCODED_ATTRIBUTES,
    BlockingBackend,
    Pair,
    RowKey,
    attribute_key,
    leading_attribute_pairs,
)
from repro.relations.relation import Relation, Row

#: One ranked element of a run: (sort key, side marker, tuple id).
Entry = Tuple[Tuple[str, ...], int, int]


def window_neighbors(
    run: Sequence[Entry], entry: Entry, window: int
) -> List[int]:
    """Other-side tuple ids within ``entry``'s rank window in a sorted run.

    The rank-range query shared by the in-memory and SQLite SN backends:
    bisect to the entry's rank (insertion-point semantics when the entry
    is not ranked yet) and scan the ±(window−1) interval.
    """
    if window < 2 or not run:
        return []
    position = bisect.bisect_left(run, entry)
    present = position < len(run) and run[position] == entry
    found: Set[int] = set()
    lower = max(0, position - window + 1)
    upper = min(len(run), position + window)
    for rank in range(lower, upper):
        candidate = run[rank]
        if candidate == entry:
            continue
        if rank >= position and not present:
            distance = rank - position + 1
        else:
            distance = abs(rank - position)
        if distance >= window:
            continue
        if candidate[1] != entry[1]:
            found.add(candidate[2])
    return sorted(found)


def run_pairs(run: Sequence[Entry], window: int) -> Set[Pair]:
    """Cross-side pairs at rank distance < ``window`` within one run.

    The same merge loop as :func:`~repro.plan.blocking.window_candidates`,
    restricted to a single block run.
    """
    pairs: Set[Pair] = set()
    for position, (_, side, tid) in enumerate(run):
        upper = min(len(run), position + window)
        for other_position in range(position + 1, upper):
            _, other_side, other_tid = run[other_position]
            if side == other_side:
                continue
            if side == _LEFT:
                pairs.add((tid, other_tid))
            else:
                pairs.add((other_tid, tid))
    return pairs


def _rotations(
    pairs: Tuple[Tuple[str, str], ...]
) -> Tuple[Tuple[Tuple[str, str], ...], ...]:
    """One sort-key rotation per attribute pair, each leading once."""
    return tuple(
        pairs[position:] + pairs[:position] for position in range(len(pairs))
    )


class WindowedSNIndex(BlockingBackend):
    """Incremental multi-pass sorted-neighborhood over block-confined runs.

    One pass per attribute pair in ``pairs`` (left attribute, right
    attribute): pass *i* sorts by the rotation of ``pairs`` starting at
    pair *i*, so each attribute leads exactly one pass and partitions its
    blocks.  Values of attributes named in ``encode_attributes`` are
    Soundex-encoded before keying, exactly like the hash backend's
    :class:`~repro.plan.blocking.RCKIndex`, so a spec's stream and batch
    runs derive identical keys.

    A window below 2 is legal at this level and yields no candidates —
    no two elements ever share a window — matching the historical
    ``window_candidates`` behavior.  (Spec *validation* rejects it
    upstream, because a silent empty candidate set is never what a spec
    author meant.)

    >>> from repro.core.schema import RelationSchema
    >>> from repro.relations.relation import Relation
    >>> schema = RelationSchema("R", ["LN", "FN"])
    >>> index = WindowedSNIndex([("LN", "LN"), ("FN", "FN")], window=3)
    >>> relation = Relation(schema)
    >>> tid = relation.insert({"LN": "Clifford", "FN": "Alice"})
    >>> index.add(0, relation[tid])
    >>> other = relation.insert({"LN": "Clivord", "FN": "Alyce"})
    >>> index.probe(1, relation[other])  # same Soundex block, ranked near
    [0]
    """

    name = "sorted-neighborhood"
    family = "sorted-neighborhood"

    def __init__(
        self,
        pairs: Sequence[Tuple[str, str]],
        window: int = 10,
        encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
    ) -> None:
        if not pairs:
            raise ValueError(
                "a sorted-neighborhood index needs at least one attribute pair"
            )
        self.pairs: Tuple[Tuple[str, str], ...] = tuple(
            (left, right) for left, right in pairs
        )
        self.window = int(window)
        self.encode_attributes: Tuple[str, ...] = tuple(encode_attributes)
        encode = set(self.encode_attributes)
        #: Per-pass sort keys: rotation *i* leads with ``pairs[i]``.
        self.passes: Tuple[Tuple[Tuple[str, str], ...], ...] = _rotations(
            self.pairs
        )
        self._left_keys: List[RowKey] = []
        self._right_keys: List[RowKey] = []
        for rotation in self.passes:
            left_attrs = [left for left, _ in rotation]
            right_attrs = [right for _, right in rotation]
            self._left_keys.append(
                attribute_key(
                    left_attrs,
                    [
                        soundex if attr in encode else None
                        for attr in left_attrs
                    ],
                )
            )
            self._right_keys.append(
                attribute_key(
                    right_attrs,
                    [
                        soundex if attr in encode else None
                        for attr in right_attrs
                    ],
                )
            )
        #: Live rank runs: one ``{block: run}`` map per pass.
        self._blocks: List[Dict[str, List[Entry]]] = [
            {} for _ in self.passes
        ]

    # -- construction recipes ------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[Tuple[str, str]],
        window: int = 10,
        encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
    ) -> "WindowedSNIndex":
        """An index over explicit spec ``key_pairs``."""
        return cls(pairs, window, encode_attributes)

    @classmethod
    def from_rcks(
        cls,
        rcks: Sequence[RelativeKey],
        window: int = 10,
        encode_attributes: Iterable[str] = DEFAULT_ENCODED_ATTRIBUTES,
        attribute_count: int = 3,
    ) -> "WindowedSNIndex":
        """Passes over the leading attribute pairs of the given RCKs."""
        if not rcks:
            raise ValueError("need at least one RCK")
        chosen = leading_attribute_pairs(rcks, attribute_count)
        return cls(chosen, window, encode_attributes)

    # -- keys and blocks -----------------------------------------------

    @property
    def pass_count(self) -> int:
        """Number of sort passes (one per keyed attribute pair)."""
        return len(self.passes)

    def key_for(self, side: int, row: Row, position: int = 0) -> Tuple[str, ...]:
        """The derived sort key of ``row`` for pass ``position``."""
        keys = self._left_keys if side == LEFT else self._right_keys
        return keys[position](row)

    @staticmethod
    def block_of(key: Tuple[str, ...]) -> str:
        """The block a key ranks in: its leading encoded component."""
        return key[0]

    def _entry(self, side: int, row: Row, position: int) -> Entry:
        return (
            self.key_for(side, row, position),
            _LEFT if side == LEFT else _RIGHT,
            row.tid,
        )

    # -- streaming -----------------------------------------------------

    def add(self, side: int, row: Row) -> None:
        """Rank one arriving record into its block run per pass."""
        for position in range(self.pass_count):
            entry = self._entry(side, row, position)
            run = self._blocks[position].setdefault(
                self.block_of(entry[0]), []
            )
            bisect.insort(run, entry)

    def probe(self, side: int, row: Row) -> List[int]:
        """Other-side tuple ids within ``row``'s rank window in any pass.

        A rank-range query per pass: bisect to the record's rank in its
        block run (the record itself is already ranked when the engine
        probes, but an un-added row is handled by insertion-point
        semantics), then scan the ±(window−1) rank interval.
        """
        found: Set[int] = set()
        for position in range(self.pass_count):
            entry = self._entry(side, row, position)
            run = self._blocks[position].get(self.block_of(entry[0]), [])
            found.update(window_neighbors(run, entry, self.window))
        return sorted(found)

    def scan_candidates(self) -> List[Pair]:
        """All cross-side window pairs over the *live* rank runs.

        Arrival-order independent: equals :meth:`candidates` over the
        same rows, because a run's final layout is the sorted entry list
        either way.
        """
        if self.window < 2:
            return []
        pairs: Set[Pair] = set()
        for blocks in self._blocks:
            for run in blocks.values():
                pairs.update(run_pairs(run, self.window))
        return sorted(pairs)

    # -- batch ---------------------------------------------------------

    def candidates(self, left: Relation, right: Relation) -> List[Pair]:
        """Block-confined window candidates for a batch instance pair.

        Runs on transient rank runs — the live runs of a streaming store
        are never touched or rebuilt.
        """
        if self.window < 2:
            return []
        pairs: Set[Pair] = set()
        for position in range(self.pass_count):
            blocks: Dict[str, List[Entry]] = {}
            for row in left:
                key = self._left_keys[position](row)
                blocks.setdefault(self.block_of(key), []).append(
                    (key, _LEFT, row.tid)
                )
            for row in right:
                key = self._right_keys[position](row)
                blocks.setdefault(self.block_of(key), []).append(
                    (key, _RIGHT, row.tid)
                )
            for run in blocks.values():
                run.sort()
                pairs.update(run_pairs(run, self.window))
        return sorted(pairs)

    # -- introspection -------------------------------------------------

    def block_count(self) -> int:
        """Number of live block runs, summed over passes."""
        return sum(len(blocks) for blocks in self._blocks)

    def largest_block(self) -> int:
        """Length of the longest live block run across passes."""
        lengths = [
            len(run) for blocks in self._blocks for run in blocks.values()
        ]
        return max(lengths) if lengths else 0

    def index_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-pass stats in the store's index-stats shape.

        Keys stay ``buckets``/``largest_bucket`` for CLI compatibility;
        for a rank index they count block runs and the longest run.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for position, rotation in enumerate(self.passes):
            blocks = self._blocks[position]
            name = "sn:" + "+".join(left for left, _ in rotation)
            stats[name] = {
                "buckets": len(blocks),
                "largest_bucket": (
                    max(len(run) for run in blocks.values()) if blocks else 0
                ),
            }
        return stats

    def describe(self) -> str:
        detail = "+".join(f"{left}~{right}" for left, right in self.pairs)
        return (
            f"sorted-neighborhood(window={self.window}, rank-encoded, "
            f"{self.pass_count} rotated pass(es) on {detail}; "
            "runs split at block boundaries)"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WindowedSNIndex(window={self.window}, "
            f"{self.pass_count} pass(es), {self.block_count()} block run(s))"
        )
