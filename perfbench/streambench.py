"""``stream-memory``: ``Workspace.stream()`` on the in-memory store.

One ``ingest`` call per event of a late-duplicate stream, with
sorted-neighborhood blocking: the per-record engine path with repair
cascades and incremental window probes, without SQLite or HTTP.  Every
timed repetition streams the whole workload into a fresh workspace.

The gate pins stream = batch: the final clusters must equal those of
``Workspace.match`` over the same dataset and spec.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Dict, List

from common import (
    SIZES,
    GateFailure,
    build_spec,
    calibration_pass,
    cluster_key,
    host_factor,
    implied_pairs,
    median,
    metric,
    named_tail,
    percentile,
    peak_rss_mb,
    quality,
    sn_blocking,
    tail,
)
from matchbench import MIN_REPS, compile_workspace

#: Ingest latencies the traced run collects at the least (p95 needs
#: ten samples beyond it).
TAIL_SAMPLES = 200

#: Per-layer metrics this workload does not measure: it compiles outside
#: the traced streams, ingests one record per call, and runs no server.
NOT_MEASURED = {
    "stream-memory": (
        "api.compile_s", "api.provenance_s", "core.find_rcks_s",
        "plan.union_calls", "plan.union_merge_ratio",
        "engine.ingest_batch_s", "engine.ingest_batch_self_s", "engine.batch_size",
        "engine.store.records_per_commit", "engine.store.disk_bytes",
        "serve.", "load.",
    ),
}


def make_inputs(seed: int, size: str):
    """(dataset, events, spec)."""
    from repro.datagen.generator import generate_dataset
    from repro.datagen.streams import late_duplicate_stream

    dataset = generate_dataset(SIZES[size]["stream-memory"], seed=seed)
    events = list(late_duplicate_stream(dataset, seed=seed).events)
    spec = build_spec(dataset, "sorted-neighborhood", **sn_blocking()).build()
    return dataset, events, spec


def stream_once(spec, events):
    """(matcher, per-ingest seconds, total seconds, compile seconds) for
    one fresh stream."""
    started = time.perf_counter()
    workspace = compile_workspace(spec)
    compile_s = time.perf_counter() - started
    matcher = workspace.stream()
    ingest = matcher.ingest
    per_call: List[float] = []
    clock = time.perf_counter
    gc.collect()
    started = clock()
    for event in events:
        before = clock()
        ingest(event.side, dict(event.values), tid=event.tid)
        per_call.append(clock() - before)
    return matcher, per_call, clock() - started, compile_s


def check(spec, dataset, matcher) -> None:
    """The streamed clusters equal the batch clusters."""
    batch = compile_workspace(spec).match(dataset.credit, dataset.billing)
    streamed = cluster_key(matcher.store.clusters())
    expected = cluster_key(batch.clusters)
    if streamed != expected:
        extra = len(set(streamed) - set(expected))
        missing = len(set(expected) - set(streamed))
        raise GateFailure(
            f"stream != batch: {extra} streamed clusters are not batch "
            f"clusters and {missing} batch clusters were not streamed "
            f"(of {len(expected)})")


def run(workload: str, seed: int, seconds: float, traced: bool, size: str,
        out_dir: Path) -> Dict[str, object]:
    dataset, events, spec = make_inputs(seed, size)
    if traced:
        return per_layer(spec, dataset, events, seconds, out_dir)
    walls, setups, calls_ms = [], [], []
    deadline = time.perf_counter() + seconds
    before = calibration_pass()
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        matcher, per_call, wall, compile_s = stream_once(spec, events)
        after = calibration_pass()
        factor = host_factor(before, after)
        before = after
        check(spec, dataset, matcher)
        walls.append(wall * factor)
        setups.append(compile_s * factor)
        calls_ms.extend(value * factor * 1000.0 for value in per_call)
    precision, recall = quality(implied_pairs(matcher.store.clusters()),
                                dataset.true_matches)
    label, value = tail(calls_ms, 99.0)
    print(f"# {len(walls)} streams of {len(events)} events; at reference speed median "
          f"{median(walls):.4f} s; ingest p50 {percentile(calls_ms, 50):.3f} ms, "
          f"{label} {value:.3f} ms ({len(calls_ms)} samples)")
    return {
        "attempted": len(calls_ms),
        "metrics": {
            "setup_s": metric(median(setups), "s"),
            "records_per_s": metric(len(events) / median(walls), "1/s"),
            "latency_p50_ms": metric(percentile(calls_ms, 50), "ms"),
            "precision": metric(precision, "ratio"),
            "recall": metric(recall, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
    }


def per_layer(spec, dataset, events, seconds, out_dir) -> Dict[str, object]:
    from layers import LayerTrace, durations, print_self_times, self_s, total_s

    plain, traced = [], []
    while sum(plain) < seconds / 2 or len(plain) * len(events) < TAIL_SAMPLES:
        matcher, _, wall, _ = stream_once(spec, events)
        check(spec, dataset, matcher)
        plain.append(wall)
    trace = LayerTrace().install()
    try:
        # Only the last stream's spans are kept, so the per-stream layer
        # figures below read that stream; its ingest latencies are
        # pooled over all traced streams.
        ingest_ms: List[float] = []
        while len(traced) < len(plain):
            trace.tracer.roots.clear()
            matcher, _, wall, _ = stream_once(spec, events)
            traced.append(wall)
            totals = trace.totals()
            ingest_ms.extend(v * 1000.0 for v in durations(totals, "engine.ingest"))
        trace.write(out_dir / "spans.json", workload_seconds=traced[-1])
    finally:
        trace.uninstall()
    check(spec, dataset, matcher)
    stats = matcher.plan.stats
    store = matcher.store
    ingests = len(events)
    lookups = stats.metric_evaluations + stats.cache_hits
    layer = {
        "plan.blocking_s": metric(total_s(totals, "store.neighbors"), "s"),
        "plan.candidates": metric(store.comparisons, "count"),
        "plan.match_yield": metric(store.merges / max(store.comparisons, 1), "ratio"),
        "plan.verdict_s": metric(self_s(totals, "plan.group_verdict"), "s"),
        "plan.evaluate_s": metric(self_s(totals, "plan.evaluate"), "s"),
        "plan.predicate_evals": metric(stats.metric_evaluations, "count"),
        "plan.cache_hit_ratio": metric(stats.cache_hits / lookups if lookups else 0.0, "ratio"),
        "plan.groups": metric(stats.groups_built, "count"),
        "plan.pairs_per_group": metric(stats.pairs_compared / max(stats.groups_built, 1), "ratio"),
        "plan.chase_s": metric(total_s(totals, "plan.enforce"), "s"),
        "plan.chase_self_s": metric(self_s(totals, "plan.enforce"), "s"),
        "plan.chases": metric(stats.enforcements, "count"),
        "plan.chase_rounds": metric(stats.chase_rounds, "count"),
        "plan.rule_applications": metric(stats.rule_applications, "count"),
        "engine.ingest_p50_ms": metric(percentile(ingest_ms, 50), "ms"),
        "engine.ingest_p95_ms": metric(named_tail(ingest_ms, 95.0), "ms"),
        "engine.chases_per_record": metric(stats.enforcements / ingests, "ratio"),
        "engine.comparisons": metric(store.comparisons / ingests, "count"),
        "engine.merge_yield": metric(store.merges / ingests, "ratio"),
        "engine.store.add_s": metric(total_s(totals, "store.add"), "s"),
        "engine.store.probe_s": metric(total_s(totals, "store.neighbors"), "s"),
        "engine.store.commit_s": metric(total_s(totals, "store.commit"), "s"),
        "trace.overhead": metric(median(traced) / median(plain), "ratio"),
    }
    print_self_times(totals, 1, "stream")
    print(f"# {len(plain)} untraced streams, median {median(plain):.4f} s; "
          f"{len(traced)} traced, median {median(traced):.4f} s")
    return {"attempted": (len(plain) + len(traced)) * ingests, "metrics": layer}
