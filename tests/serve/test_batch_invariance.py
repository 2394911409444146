"""Batch-boundary invariance: any micro-batching ≡ one-at-a-time.

The service's correctness argument leans on one property: however the
micro-batch queue happens to slice the arrival order — load bursts,
timer expiries, queue drains — running
:meth:`IncrementalMatcher.ingest_batch` over the slices produces the
same store state *and the same per-event results* as ingesting every
record individually.  ``ingest_batch`` is per-record ingest with one
commit per batch, so the property holds by construction; Hypothesis
draws random partitions of a record stream into consecutive
micro-batches and checks it for every store shape — hash and
sorted-neighborhood blocking, memory and SQLite stores — along with
the batch's bookkeeping: one ``ingests`` count and ``ingest_seconds``
sample per event, one ``batches`` count and one durable commit per
batch.  A batch holding an event the store would reject fails whole:
nothing of it lands, not even after a later commit and a reopen.
"""

from __future__ import annotations

import functools
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.streams import arrival_stream, duplicate_burst_stream

from serve_helpers import builder, dataset, state


def _events():
    return list(arrival_stream(dataset(60, seed=7), seed=3).events)


def _partition(events, cut_points):
    """Split ``events`` into consecutive batches at the cut points."""
    bounds = sorted({cut for cut in cut_points if 0 < cut < len(events)})
    batches = []
    start = 0
    for bound in bounds + [len(events)]:
        if bound > start:
            batches.append(events[start:bound])
            start = bound
    return batches


def _result_log(results):
    return [
        (r.side, r.tid, r.candidates, r.matches, r.merged,
         r.cascade_truncated)
        for r in results
    ]


@functools.lru_cache(maxsize=None)
def _reference(backend):
    matcher = builder(dataset(60, seed=7), backend=backend).workspace().stream()
    results = matcher.ingest_stream(_events())
    return state(matcher.store), _result_log(results)


def _bookkeeping(metrics):
    """The per-batch counters a micro-batch must advance."""
    counters = metrics.counters
    histogram = metrics.histogram("engine.ingest_seconds")
    return (
        counters.get("engine.ingests", 0),
        histogram.count if histogram is not None else 0,
        counters.get("engine.batches", 0),
        counters.get("store.commits", 0),
    )


@pytest.mark.parametrize("store", ["memory", "sqlite"])
@pytest.mark.parametrize("backend", ["hash", "sorted-neighborhood"])
@settings(max_examples=20, deadline=None)
@given(
    cut_points=st.lists(
        st.integers(min_value=1, max_value=200), max_size=12
    )
)
def test_any_partition_equals_one_at_a_time(backend, store, cut_points):
    events = _events()
    expected_state, expected_results = _reference(backend)

    with tempfile.TemporaryDirectory() as directory:
        spec_builder = builder(dataset(60, seed=7), backend=backend)
        if store == "sqlite":
            spec_builder = spec_builder.persistence(
                "sqlite", os.path.join(directory, "batch.db")
            )
        matcher = spec_builder.workspace().stream()
        try:
            results = []
            for batch in _partition(events, cut_points):
                before = _bookkeeping(matcher.metrics)
                results.extend(matcher.ingest_batch(batch))
                after = _bookkeeping(matcher.metrics)
                n = len(batch)
                commits = 1 if store == "sqlite" else 0
                assert [b - a for a, b in zip(before, after)] == [
                    n, n, 1, commits
                ]

            assert _result_log(results) == expected_results
            assert state(matcher.store) == expected_state
        finally:
            matcher.store.close()


def test_one_big_batch_equals_stream(tmp_path):
    """The extreme partition — everything in one batch — agrees too, on
    both store backends (the durable store commits once per batch)."""
    events = list(duplicate_burst_stream(dataset(60, seed=7), seed=3).events)

    reference = builder(dataset(60, seed=7)).workspace().stream()
    reference_results = reference.ingest_stream(events)

    durable = (
        builder(dataset(60, seed=7))
        .persistence("sqlite", str(tmp_path / "batch.db"))
        .workspace()
        .stream()
    )
    durable_results = durable.ingest_batch(events)

    assert _result_log(durable_results) == _result_log(reference_results)
    assert state(durable.store) == state(reference.store)
    durable.store.close()


def _workspace(store, directory):
    spec_builder = builder(dataset(60, seed=7))
    if store == "sqlite":
        spec_builder = spec_builder.persistence(
            "sqlite", str(directory / "batch.db")
        )
    return spec_builder.workspace()


@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_failed_batch_leaves_the_store_unchanged(store, tmp_path):
    """``[good, dup]`` — ``dup`` reusing a stored tid — raises before
    ``good`` is added, so a later healthy batch's commit cannot make
    ``good`` durable, and re-ingesting ``good`` succeeds."""
    events = _events()
    warm, good, healthy = events[:10], events[10], events[11:20]
    dup = warm[0]
    workspace = _workspace(store, tmp_path)
    matcher = workspace.stream()
    matcher.ingest_batch(warm)
    before = state(matcher.store)

    with pytest.raises(ValueError, match="already present"):
        matcher.ingest_batch([good, dup])
    assert state(matcher.store) == before

    matcher.ingest_batch(healthy)
    if store == "sqlite":
        matcher.store.close()
        matcher = workspace.stream()
    assert good.tid not in matcher.store.relation(good.side)
    (result,) = matcher.ingest_batch([good])
    assert result.tid == good.tid
    matcher.store.close()


@pytest.mark.parametrize("store", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "bad_batch, error",
    [
        # a tid claimed earlier in the same batch
        (lambda event: [event, (event.side, event.values, event.tid)],
         ValueError),
        # an auto-assigned tid, then the same tid given explicitly
        (lambda event: [(event.side, event.values),
                        (event.side, event.values, 0)], ValueError),
        # an attribute outside the schema
        (lambda event: [event, (event.side, {"no such attribute": 1})],
         KeyError),
    ],
    ids=["tid-claimed-in-batch", "auto-assigned-tid", "unknown-attribute"],
)
def test_invalid_batch_raises_before_any_add(store, bad_batch, error, tmp_path):
    matcher = _workspace(store, tmp_path).stream()
    before = state(matcher.store)
    with pytest.raises(error):
        matcher.ingest_batch(bad_batch(_events()[0]))
    assert state(matcher.store) == before
    matcher.store.close()
