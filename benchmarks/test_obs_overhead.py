"""BENCH — the cost of leaving instrumentation in place, tracing off.

Acceptance benchmark for ``repro.obs``: the tracing hooks are threaded
unconditionally through the chase, the workspace, and the engine, so
they MUST be ~free when tracing is off.  Two guarantees are pinned:

* a tracing-off run records **zero** span events (the shared
  :data:`~repro.obs.trace.NULL_TRACER` never allocates or reads the
  clock), and decides exactly the matches of a traced run with the same
  fingerprint;
* the projected overhead of the no-op calls — the number of spans a
  traced run of the same workload records, times the measured per-call
  cost of a null span — stays **under 2%** of the untraced run's
  wall-clock.  The projection is deterministic (a microbenchmark times
  the null span in a tight loop), so the assertion is stable on shared
  single-core CI runners where comparing two noisy end-to-end timings
  would not be.

Results are printed as one JSON document and appended to
``REPRO_BENCH_JSON`` when set; CI schema-checks the output with
``benchmarks/check_bench_json.py``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.api import Workspace
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.experiments.harness import resolution_spec_document, timed
from repro.obs import MetricsRegistry
from repro.obs.trace import NULL_TRACER

from conftest import overhead_size

#: Null-span microbenchmark iterations (enough to resolve sub-µs costs).
NOOP_CALLS = 200_000


def _emit(payload):
    text = json.dumps(payload, sort_keys=True)
    print()
    print(text)
    sink = os.environ.get("REPRO_BENCH_JSON")
    if sink:
        with Path(sink).open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _noop_call_seconds(calls: int = NOOP_CALLS) -> float:
    """Measured per-call cost of one disabled span (enter + exit)."""
    span = NULL_TRACER.span  # the attribute load the hot path performs
    start = time.perf_counter()
    for _ in range(calls):
        with span("x"):
            pass
    return (time.perf_counter() - start) / calls


def run_overhead_point(size: int, seed: int = 3):
    """Untraced vs traced match on one K of the scalability workload."""
    dataset = generate_dataset(size, seed=seed)
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "hash", "key_length": 2},
        execution={"mode": "enforce"},
    )

    off_workspace = Workspace.from_dict(document)
    off_report, off_seconds = timed(
        off_workspace.match, dataset.credit, dataset.billing
    )
    off_events = off_workspace.tracer.event_count()

    traced_document = dict(document)
    traced_document["observability"] = {"enabled": True}
    on_workspace = Workspace.from_dict(traced_document)
    on_report = on_workspace.match(dataset.credit, dataset.billing)
    on_events = on_workspace.tracer.event_count()

    per_call = _noop_call_seconds()
    overhead_fraction = (
        on_events * per_call / off_seconds if off_seconds else 0.0
    )
    registry = MetricsRegistry()
    registry.count("obs.traced_on_events", on_events)
    registry.observe("obs.noop_call_seconds", per_call)
    registry.observe("obs.untraced_seconds", off_seconds)
    return {
        "benchmark": "obs_tracer_overhead",
        "K": size,
        "traced_off_events": off_events,
        "traced_on_events": on_events,
        "noop_call_seconds": per_call,
        "untraced_seconds": off_seconds,
        "overhead_fraction": overhead_fraction,
        "reports_identical": int(
            off_report.matches == on_report.matches
            and off_report.clusters == on_report.clusters
            and off_report.fingerprint == on_report.fingerprint
        ),
        "metrics": registry.as_dict(),
    }


def test_noop_tracing_overhead_under_two_percent(benchmark):
    """Tracing off records nothing and projects to < 2% of the run."""
    record = benchmark.pedantic(
        run_overhead_point, args=(overhead_size(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    _emit(record)
    # The null tracer must be truly silent, and free of side effects.
    assert record["traced_off_events"] == 0
    assert record["traced_on_events"] > 0
    assert record["reports_identical"] == 1
    # The acceptance bound: what the untraced run pays for carrying the
    # instrumentation, projected from the measured no-op call cost.
    assert record["overhead_fraction"] < 0.02
