"""A relation view over the ``records`` table: rows read lazily, written through.

:class:`SQLiteRelation` duck-types the parts of
:class:`repro.relations.relation.Relation` the engine uses — insertion,
id lookup, cell updates, iteration — against one side of the ``records``
table.  Two properties make the durable store behave exactly like the
in-memory one:

* **lazy reads** — opening a store loads *nothing*; a row is fetched
  (and then cached) the first time it is touched, so a warm restart is
  O(1) regardless of store size;
* **write-through mutation** — :meth:`insert` and :meth:`set_value`
  update the cache and the table in the same (uncommitted) transaction,
  so a rollback leaves both consistent.

Unlike the base ``Relation``, each record carries *two* value sets: the
arrival values (immutable after insert; index keys and consensus
resolution derive from them) and the current values (rewritten by
cluster consensus repairs).  ``Row`` views hand out copies, so the only
mutation path is :meth:`set_value` — exactly the contract
:class:`~repro.engine.matcher.IncrementalMatcher` relies on.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.schema import RelationSchema
from repro.relations.relation import Row


class SQLiteRelation:
    """One side's records, backed by the ``records`` table."""

    def __init__(
        self, connection: sqlite3.Connection, schema: RelationSchema, side: int
    ) -> None:
        self.connection = connection
        self.schema = schema
        self.side = side
        #: tid -> (arrival values, current values); populated lazily.
        self._cache: Dict[int, Tuple[Dict[str, object], Dict[str, object]]] = {}
        self._count: Optional[int] = None
        self._next_tid: Optional[int] = None

    # ------------------------------------------------------------------
    # Mutation (write-through)
    # ------------------------------------------------------------------

    def insert(
        self, values: Dict[str, object], tid: Optional[int] = None
    ) -> int:
        """Insert a record; arrival and current values start identical."""
        unknown = set(values) - set(self.schema.attribute_names)
        if unknown:
            raise KeyError(
                f"attributes {sorted(unknown)} not in schema {self.schema.name!r}"
            )
        if tid is None:
            tid = self._allocate_tid()
        elif tid in self:
            raise ValueError(f"tuple id {tid} already present")
        complete = {
            name: values.get(name) for name in self.schema.attribute_names
        }
        payload = json.dumps(complete, sort_keys=True)
        self.connection.execute(
            "INSERT INTO records (side, tid, arrival, current) "
            "VALUES (?, ?, ?, ?)",
            (self.side, tid, payload, payload),
        )
        self._cache[tid] = (dict(complete), dict(complete))
        if self._count is not None:
            self._count += 1
        if self._next_tid is not None:
            self._next_tid = max(self._next_tid, tid + 1)
        return tid

    def set_value(self, tid: int, attribute: str, value: object) -> None:
        """Update one cell of the *current* values (arrival is immutable)."""
        if attribute not in self.schema:
            raise KeyError(
                f"{attribute!r} is not an attribute of {self.schema.name!r}"
            )
        _, current = self._fetch(tid)
        current[attribute] = value
        self.connection.execute(
            "UPDATE records SET current = ? WHERE side = ? AND tid = ?",
            (json.dumps(current, sort_keys=True), self.side, tid),
        )

    # ------------------------------------------------------------------
    # Access (lazy, cached)
    # ------------------------------------------------------------------

    def _fetch(self, tid: int) -> Tuple[Dict[str, object], Dict[str, object]]:
        cached = self._cache.get(tid)
        if cached is not None:
            return cached
        row = self.connection.execute(
            "SELECT arrival, current FROM records WHERE side = ? AND tid = ?",
            (self.side, tid),
        ).fetchone()
        if row is None:
            raise KeyError(
                f"no tuple with id {tid} in {self.schema.name!r}"
            )
        entry = (json.loads(row[0]), json.loads(row[1]))
        self._cache[tid] = entry
        return entry

    def arrival_values(self, tid: int) -> Dict[str, object]:
        """The record's values as ingested, before any consensus repair."""
        return dict(self._fetch(tid)[0])

    def __getitem__(self, tid: int) -> Row:
        return Row(tid, dict(self._fetch(tid)[1]))

    def __contains__(self, tid: object) -> bool:
        if tid in self._cache:
            return True
        row = self.connection.execute(
            "SELECT 1 FROM records WHERE side = ? AND tid = ?",
            (self.side, tid),
        ).fetchone()
        return row is not None

    def __iter__(self) -> Iterator[Row]:
        """All rows in insertion order (matching ``Relation`` iteration);
        fetched in one scan, then cached."""
        for tid, arrival, current in self.connection.execute(
            "SELECT tid, arrival, current FROM records "
            "WHERE side = ? ORDER BY rowid",
            (self.side,),
        ).fetchall():
            if tid not in self._cache:
                self._cache[tid] = (json.loads(arrival), json.loads(current))
            yield Row(tid, dict(self._cache[tid][1]))

    def __len__(self) -> int:
        if self._count is None:
            self._count = self.connection.execute(
                "SELECT COUNT(*) FROM records WHERE side = ?", (self.side,)
            ).fetchone()[0]
        return self._count

    def tids(self) -> List[int]:
        """All tuple ids, in insertion order."""
        return [
            row[0]
            for row in self.connection.execute(
                "SELECT tid FROM records WHERE side = ? ORDER BY rowid",
                (self.side,),
            ).fetchall()
        ]

    def rows(self) -> List[Row]:
        """All rows, in insertion order."""
        return list(self)

    def next_tid(self) -> int:
        """The tuple id an insert without an explicit ``tid`` would get."""
        if self._next_tid is None:
            row = self.connection.execute(
                "SELECT MAX(tid) FROM records WHERE side = ?", (self.side,)
            ).fetchone()
            self._next_tid = 0 if row[0] is None else row[0] + 1
        return self._next_tid

    def _allocate_tid(self) -> int:
        tid = self.next_tid()
        self._next_tid = tid + 1
        return tid

    def invalidate_cache(self) -> None:
        """Drop cached rows (used after a rollback)."""
        self._cache.clear()
        self._count = None
        self._next_tid = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SQLiteRelation({self.schema.name!r}, side={self.side})"
