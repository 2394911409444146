"""``repro.obs`` — zero-dependency observability for the resolution stack.

Three pieces, threaded through every layer (workspace, plan kernel,
streaming engine, service, CLI, benchmarks):

* :mod:`~repro.obs.trace` — a :class:`Tracer` of nested monotonic-clock
  spans with a no-op :data:`NULL_TRACER` default, so instrumentation
  stays in place and untraced hot paths pay ~nothing;
* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and exact-percentile histograms (p50/p95/p99), the one render
  path behind ``MatchReport.stats``, trace files, and ``BENCH_*.json``;
* :mod:`~repro.obs.export` — run manifests plus exporters: Chrome
  ``trace_event`` JSON (``about:tracing`` / Perfetto), JSONL, and the
  ``repro trace summarize`` text table.
"""

from .export import (
    TRACE_FORMATS,
    read_trace,
    run_manifest,
    summarize_trace,
    trace_document,
    validate_trace,
    write_trace,
)
from .metrics import Histogram, MetricsRegistry, percentile
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "TRACE_FORMATS",
    "percentile",
    "read_trace",
    "run_manifest",
    "summarize_trace",
    "trace_document",
    "validate_trace",
    "write_trace",
]
