"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps public functions of the program's layers in
``repro.obs.Tracer`` spans for the length of a traced run and restores
them afterwards.  A layer's self time is its span's duration minus the
durations of its child spans (the wrapped calls nest, so a child always
lies inside its parent's interval).

Each top-level span carries an ``id`` attribute: one per top-level call
(a match, a compile's RCK deduction, an ingest call or a micro-batch).  The tracer is not thread-safe;
every wrapped call runs on one thread at a time (the server runs all
engine work under its tenant lock).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from repro.obs import Tracer

#: Layer functions wrapped in every traced run: (module, owner, attribute,
#: span name).  ``owner`` None wraps a module-level function.
LAYER_FUNCTIONS = (
    ("repro.api.workspace", "Workspace", "match", "api.match"),
    ("repro.api.workspace", None, "find_rcks", "core.find_rcks"),
    ("repro.plan.compile", "EnforcementPlan", "candidates", "plan.candidates"),
    ("repro.plan.compile", "EnforcementPlan", "enforce", "plan.enforce"),
    ("repro.plan.compile", "EnforcementPlan", "group_verdict", "plan.group_verdict"),
    ("repro.engine.matcher", "IncrementalMatcher", "ingest", "engine.ingest"),
    ("repro.engine.matcher", "IncrementalMatcher", "ingest_batch", "engine.ingest_batch"),
    ("repro.engine.store", "MatchStore", "add", "store.add"),
    ("repro.engine.store", "MatchStore", "neighbors", "store.neighbors"),
    ("repro.engine.store", "MatchStore", "commit", "store.commit"),
    ("repro.engine.sqlite.store", "SQLiteMatchStore", "add", "store.add"),
    ("repro.engine.sqlite.store", "SQLiteMatchStore", "neighbors", "store.neighbors"),
    ("repro.engine.sqlite.store", "SQLiteMatchStore", "commit", "store.commit"),
)


#: Functions called too often for a span each (a span costs microseconds,
#: and the predicate runs 10^5 times per match): their time is summed
#: into the attributes of the enclosing span and subtracted from its
#: self time, without a span of their own.
TIMED_FUNCTIONS = (
    ("repro.plan.compile", "EnforcementPlan", "evaluate", "plan.evaluate"),
)


class LayerTrace:
    """Install span wrappers on the layer functions; fold spans to totals."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._restore: List[Tuple[object, str, object]] = []
        self._next_id = 0
        #: Successful/attempted cell unions, when :meth:`count_unions` ran.
        self.union_calls = 0
        self.union_merges = 0

    def install(self) -> "LayerTrace":
        import importlib

        for module_name, owner_name, attribute, span_name in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self._wrap(owner, attribute, span_name)
        for module_name, owner_name, attribute, name in TIMED_FUNCTIONS:
            owner = getattr(importlib.import_module(module_name), owner_name)
            self._time(owner, attribute, name)
        return self

    def _time(self, owner, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute]
        stack = self.tracer._stack
        clock = time.perf_counter
        seconds_key, calls_key = name + ":s", name + ":calls"

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                if stack:
                    attrs = stack[-1].attrs
                    attrs[seconds_key] = attrs.get(seconds_key, 0.0) + clock() - started
                    attrs[calls_key] = attrs.get(calls_key, 0) + 1

        setattr(owner, attribute, timed)
        self._restore.append((owner, attribute, original))

    def count_unions(self) -> None:
        """Count cell-union calls of the chase and how many merged.

        A counter, not a span: the union runs hundreds of thousands of
        times per match and a span each would swamp the measurement.
        """
        from repro.core.semantics import _CellUnionFind

        original = _CellUnionFind.union
        trace = self

        @functools.wraps(original)
        def union(cells, a, b):
            merged = original(cells, a, b)
            trace.union_calls += 1
            if merged:
                trace.union_merges += 1
            return merged

        _CellUnionFind.union = union
        self._restore.append((_CellUnionFind, "union", original))

    def _wrap(self, owner, attribute: str, span_name: str) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self.tracer
        trace = self

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            span = tracer.span(span_name)
            if not tracer._stack:
                span.set("id", trace._next_id)
                trace._next_id += 1
            with span:
                return original(*args, **kwargs)

        setattr(owner, attribute, wrapped)
        self._restore.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, object]]:
        """Per span name: call count, total and self seconds, durations."""
        out: Dict[str, Dict[str, object]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        )
        stack = list(self.tracer.roots)
        while stack:
            span = stack.pop()
            entry = out[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.duration
            own = span.duration - sum(c.duration for c in span.children)
            for key, value in span.attrs.items():
                if key.endswith(":s"):
                    # Time of a timed function called inside this span.
                    timed = out[key[:-2]]
                    timed["total_s"] += value
                    timed["self_s"] += value
                    timed["calls"] += span.attrs[key[:-2] + ":calls"]
                    own -= value
            entry["self_s"] += own
            entry["durations"].append(span.duration)
            stack.extend(span.children)
        return dict(out)

    def write(self, path: Path, **extra) -> None:
        """The spans (flat: name, start, end, parent, id) plus ``extra``."""
        rows = []
        counter = 0

        def visit(span, parent, root_id):
            nonlocal counter
            counter += 1
            index = counter
            rows.append({
                "span": index, "name": span.name, "start": span.start,
                "end": span.start + span.duration, "parent": parent,
                "id": root_id,
            })
            for child in span.children:
                visit(child, index, root_id)

        for root in self.tracer.roots:
            visit(root, None, root.attrs.get("id"))
        path.write_text(json.dumps({"spans": rows, **extra}))


def merge_totals(into: Dict[str, Dict[str, float]], totals) -> None:
    """Add one :meth:`LayerTrace.totals` into a running sum."""
    for name, entry in totals.items():
        row = into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in row:
            row[key] += entry[key]


def print_self_times(totals, per: float = 1.0, unit: str = "run") -> None:
    """The self-time table, largest self time first, divided by ``per``."""
    rows = sorted(totals.items(), key=lambda item: -item[1]["self_s"])
    grand = sum(entry["self_s"] for _, entry in rows) or 1.0
    print(f"# self time per {unit} (traced): layer, calls, total ms, self ms, share")
    for name, entry in rows:
        print(f"#   {name:22s} {entry['calls'] / per:10.1f} "
              f"{1000.0 * entry['total_s'] / per:10.3f} "
              f"{1000.0 * entry['self_s'] / per:10.3f} "
              f"{100.0 * entry['self_s'] / grand:5.1f}%")


def self_s(totals, name: str) -> float:
    return float(totals.get(name, {}).get("self_s", 0.0))


def total_s(totals, name: str) -> float:
    return float(totals.get(name, {}).get("total_s", 0.0))


def calls(totals, name: str) -> int:
    return int(totals.get(name, {}).get("calls", 0))


def durations(totals, name: str) -> List[float]:
    return list(totals.get(name, {}).get("durations", []))
