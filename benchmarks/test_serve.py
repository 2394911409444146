"""BENCH — the resolution service: micro-batched ingest over HTTP.

Runs the real server (asyncio loop on its own thread, stdlib
``http.client`` driving the wire protocol) over a SQLite store and a
serving-shaped workload: a warm partial customer base, then live
billing traffic, most of it from unknown card holders.  Three claims
are measured:

* ingest throughput through the full HTTP + micro-batch + engine stack
  (records/sec, reported only — no timing assertion on shared runners);
* match latency quantiles straight from the server's own
  ``serve.match.seconds`` histogram (p50/p99);
* commit amortization: a micro-batch runs ``ingest`` per record but
  commits once, so the server commits exactly once per batch while
  per-record ingest (``ingest_stream``) commits once per record — at
  *equal correctness* (identical final clusters).  ``commit_speedup``
  is per-record-commit ingest seconds over batched ingest seconds on
  fresh SQLite stores, the median of 3 alternating pairs; it must be
  at least 1.

One JSON document is emitted (appended to ``REPRO_BENCH_JSON`` when
set); the committed baseline lives at
``benchmarks/baselines/BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import time
from pathlib import Path

from repro.api import Workspace
from repro.core.schema import LEFT
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import arrival_stream
from repro.serve import ResolutionServer, ServerThread

from conftest import serve_size

BATCH = 32
MATCH_REQUESTS = 20
#: Alternating (per-record, batched) timing pairs behind commit_speedup.
COMMIT_REPS = 3


def _emit(payload):
    text = json.dumps(payload, sort_keys=True)
    print()
    print(text)
    sink = os.environ.get("REPRO_BENCH_JSON")
    if sink:
        with Path(sink).open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _serving_workload(size):
    """Warm base + live traffic: 20% of card holders are enrolled up
    front, then every billing transaction arrives — most from unknown
    holders.
    """
    source = generate_dataset(
        size, duplicate_fraction=0.15, namesake_fraction=0.35, seed=13
    )
    events = list(arrival_stream(source).events)
    credit = [event for event in events if event.side == LEFT]
    billing = [event for event in events if event.side != LEFT]
    warm = [event for event in credit if (event.entity % 100) < 20]
    return source, warm + billing


def _spec(source, store_path):
    return (
        Workspace.builder()
        .pair(source.pair)
        .target(source.target)
        .mds(extended_mds(source.pair))
        .blocking("hash")
        .execution(top_k=5)
        .serve(port=0, max_batch=BATCH, max_delay_ms=20)
        .persistence("sqlite", str(store_path))
        .build()
    )


def _commits(workspace):
    return workspace.metrics.counters.get("store.commits", 0)


def _timed_ingest(source, stream, store_path, batched):
    """Ingest ``stream`` into a fresh SQLite store; returns (seconds,
    commits, clusters).  Opening the store is not timed or counted."""
    workspace = Workspace(_spec(source, store_path))
    matcher = workspace.stream()
    try:
        commits = _commits(workspace)
        started = time.perf_counter()
        if batched:
            for start in range(0, len(stream), BATCH):
                matcher.ingest_batch(stream[start : start + BATCH])
        else:
            matcher.ingest_stream(stream)
        seconds = time.perf_counter() - started
        return seconds, _commits(workspace) - commits, matcher.store.clusters()
    finally:
        matcher.store.close()


def _request(connection, method, path, body=None):
    payload = json.dumps(body) if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    return response.status, json.loads(raw)


def test_micro_batched_service_amortizes_the_commit(tmp_path):
    source, stream = _serving_workload(serve_size())
    spec = _spec(source, tmp_path / "serve.db")
    thread = ServerThread(ResolutionServer(spec))
    host, port = thread.start()
    try:
        # Open the tenant's store up front so the commit that stamps the
        # spec fingerprint is not counted as an ingest commit.
        tenant = thread.server.tenant
        tenant.matcher
        commits_before = _commits(tenant.workspace)
        connection = http.client.HTTPConnection(host, port, timeout=120)
        try:
            # Ingest through the wire in full micro-batches (the
            # steady-traffic shape); wall time covers HTTP framing,
            # queueing, engine work and one SQLite commit per batch.
            batches = 0
            started = time.perf_counter()
            for start in range(0, len(stream), BATCH):
                status, body = _request(
                    connection,
                    "POST",
                    "/ingest",
                    {
                        "records": [
                            {
                                "side": "left" if event.side == LEFT else "right",
                                "values": dict(event.values),
                                "tid": event.tid,
                            }
                            for event in stream[start : start + BATCH]
                        ]
                    },
                )
                assert status == 200, body
                batches += 1
            ingest_seconds = time.perf_counter() - started
            commits_batched = _commits(tenant.workspace) - commits_before

            # Match latency, measured by the server itself: quantiles
            # come from its per-endpoint histogram, not client clocks.
            left_rows = [
                dict(event.values) for event in stream if event.side == LEFT
            ][:3]
            right_rows = [
                dict(event.values) for event in stream if event.side != LEFT
            ][:3]
            for _ in range(MATCH_REQUESTS):
                status, body = _request(
                    connection,
                    "POST",
                    "/match",
                    {"left": left_rows, "right": right_rows},
                )
                assert status == 200, body
            status, metrics = _request(connection, "GET", "/metrics")
            assert status == 200
            summary = metrics["server"]["histograms"]["serve.match.seconds"]
            assert summary["count"] == MATCH_REQUESTS
        finally:
            connection.close()

        server_clusters = tenant.matcher.store.clusters()
    finally:
        thread.stop()

    # The per-record control — the same events through ingest_stream,
    # one commit per record — alternating with batched ingest, each rep
    # on fresh SQLite stores.
    speedups = []
    for rep in range(COMMIT_REPS):
        unbatched_s, commits_unbatched, control_clusters = _timed_ingest(
            source, stream, tmp_path / f"unbatched-{rep}.db", batched=False
        )
        batched_s, _, _ = _timed_ingest(
            source, stream, tmp_path / f"batched-{rep}.db", batched=True
        )
        speedups.append(unbatched_s / batched_s)
    commit_speedup = statistics.median(speedups)
    clusters_equal = int(server_clusters == control_clusters)

    _emit({
        "benchmark": "serve",
        "records": len(stream),
        "batches": batches,
        "ingest_seconds": ingest_seconds,
        "ingest_rps": len(stream) / ingest_seconds,
        "match_requests": MATCH_REQUESTS,
        "match_p50_ms": summary["p50"] * 1000.0,
        "match_p99_ms": summary["p99"] * 1000.0,
        "commits_batched": commits_batched,
        "commits_unbatched": commits_unbatched,
        "commit_speedup": commit_speedup,
        "clusters_equal": clusters_equal,
    })
    assert clusters_equal == 1
    assert commits_batched == batches
    assert commits_unbatched == len(stream)
    assert commit_speedup >= 1.0
