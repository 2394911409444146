"""Trace exporters: Chrome ``trace_event`` JSON, JSONL, and a text summary.

The on-disk trace is one JSON document in the Chrome trace *object*
format, directly loadable in ``about:tracing`` or https://ui.perfetto.dev
(both ignore unknown top-level keys), carrying three sections:

* ``traceEvents`` — one complete (``"ph": "X"``) event per span, with
  microsecond timestamps re-based to the earliest span, all on the one
  ``main`` thread row;
* ``manifest`` — the run manifest: spec fingerprint, execution mode,
  command line, platform — everything needed to say *what* run this
  trace observed (see :func:`run_manifest`);
* ``metrics`` — the :class:`~repro.obs.metrics.MetricsRegistry` render
  of the run's counters/gauges/histograms.

:func:`summarize_trace` aggregates a document back into a per-span-name
text table (``repro trace summarize``); :func:`validate_trace` is the
structural schema check CI runs on smoke traces.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import MetricsRegistry
from .trace import Span, Tracer

#: Trace file formats the writers/CLI understand.
TRACE_FORMATS = ("chrome", "jsonl")


def run_manifest(**fields) -> Dict[str, object]:
    """A run manifest: environment stamp plus caller-supplied fields.

    Callers layer in what identifies the run — the workspace adds the
    spec fingerprint/mode/policy, the CLI adds its argv and data files.
    """
    manifest: Dict[str, object] = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": sys.platform,
    }
    manifest.update(fields)
    return manifest


def _span_events(
    span: Span, origin: float, events: List[Dict[str, object]]
) -> None:
    events.append(
        {
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": 0,
            "args": dict(span.attrs),
        }
    )
    for child in span.children:
        _span_events(child, origin, events)


def trace_document(
    tracer: Tracer,
    manifest: Optional[Dict[str, object]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """The Chrome-loadable trace document for a tracer's spans."""
    roots = tracer.spans()
    origin = min((span.start for span in roots), default=0.0)
    events: List[Dict[str, object]] = []
    for root in roots:
        _span_events(root, origin, events)
    events.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "main"},
        }
    )
    return {
        "displayTimeUnit": "ms",
        "manifest": manifest or run_manifest(),
        "metrics": metrics.as_dict() if metrics is not None else None,
        "traceEvents": events,
    }


def write_trace(
    tracer: Tracer,
    path,
    manifest: Optional[Dict[str, object]] = None,
    metrics: Optional[MetricsRegistry] = None,
    format: str = "chrome",
) -> Dict[str, object]:
    """Write the trace to ``path``; returns the chrome document either way.

    ``format="chrome"`` writes the single JSON document;
    ``format="jsonl"`` writes one JSON object per line — a ``manifest``
    line, a ``metrics`` line, then every span event in timestamp order —
    for log shippers and ``grep``.
    """
    if format not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {format!r}; choose one of {list(TRACE_FORMATS)}"
        )
    document = trace_document(tracer, manifest=manifest, metrics=metrics)
    path = Path(path)
    if format == "chrome":
        path.write_text(
            json.dumps(document, sort_keys=True, default=str) + "\n",
            encoding="utf-8",
        )
        return document
    lines = [
        json.dumps({"manifest": document["manifest"]}, sort_keys=True, default=str),
        json.dumps({"metrics": document["metrics"]}, sort_keys=True, default=str),
    ]
    spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    for event in sorted(spans, key=lambda e: e["ts"]):
        lines.append(json.dumps({"span": event}, sort_keys=True, default=str))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return document


def read_trace(path) -> Dict[str, object]:
    """Read a trace file in either format back into the chrome document."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty trace file")
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict):
        return document
    # JSONL: manifest line, metrics line, span lines.
    rebuilt: Dict[str, object] = {
        "displayTimeUnit": "ms",
        "manifest": {},
        "metrics": None,
        "traceEvents": [],
    }
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{number}: invalid JSON ({error})") from None
        if "manifest" in record:
            rebuilt["manifest"] = record["manifest"]
        elif "metrics" in record:
            rebuilt["metrics"] = record["metrics"]
        elif "span" in record:
            rebuilt["traceEvents"].append(record["span"])
    return rebuilt


def validate_trace(document: object) -> List[str]:
    """Structural problems with a trace document (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"expected a JSON object, got {type(document).__name__}"]
    manifest = document.get("manifest")
    if not isinstance(manifest, dict):
        problems.append("missing 'manifest' object")
    elif "spec_fingerprint" not in manifest:
        problems.append("manifest: missing 'spec_fingerprint'")
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("'traceEvents' must be a non-empty list")
        return problems
    spans = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{index}]: not an object")
            continue
        if event.get("ph") == "M":
            continue
        spans += 1
        for key, kind in (
            ("name", str), ("ph", str), ("ts", (int, float)),
            ("dur", (int, float)), ("pid", int), ("tid", int),
        ):
            if not isinstance(event.get(key), kind):
                problems.append(
                    f"traceEvents[{index}]: missing or mistyped {key!r}"
                )
    if spans == 0:
        problems.append("no span events (only metadata) in 'traceEvents'")
    metrics = document.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            problems.append("'metrics' must be an object or null")
        else:
            for section in ("counters", "gauges", "histograms"):
                if not isinstance(metrics.get(section), dict):
                    problems.append(f"metrics: missing '{section}' object")
    return problems


def summarize_trace(document: Dict[str, object]) -> str:
    """A per-span-name aggregate table of one trace document."""
    events = [
        event
        for event in document.get("traceEvents", [])
        if isinstance(event, dict) and event.get("ph") == "X"
    ]
    manifest = document.get("manifest") or {}
    lines = []
    if manifest:
        rendered = ", ".join(
            f"{key}={manifest[key]}"
            for key in ("spec_fingerprint", "mode", "created_at")
            if key in manifest
        )
        lines.append(f"# trace manifest: {rendered or manifest}")
    by_name: Dict[str, List[float]] = {}
    for event in events:
        by_name.setdefault(str(event["name"]), []).append(
            float(event["dur"]) / 1e3
        )
    header = f"{'span':<24} {'count':>6} {'total_ms':>10} {'mean_ms':>9} {'max_ms':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, durations in sorted(
        by_name.items(), key=lambda item: -sum(item[1])
    ):
        lines.append(
            f"{name:<24} {len(durations):>6} {sum(durations):>10.3f} "
            f"{sum(durations) / len(durations):>9.3f} {max(durations):>9.3f}"
        )
    metrics = document.get("metrics")
    if isinstance(metrics, dict):
        histograms = metrics.get("histograms") or {}
        if histograms:
            lines.append("")
            lines.append(
                f"{'histogram':<28} {'count':>6} {'p50':>10} {'p95':>10} {'p99':>10}"
            )
            for name, summary in sorted(histograms.items()):
                if not summary.get("count"):
                    continue
                lines.append(
                    f"{name:<28} {summary['count']:>6} "
                    f"{summary.get('p50', 0.0):>10.6f} "
                    f"{summary.get('p95', 0.0):>10.6f} "
                    f"{summary.get('p99', 0.0):>10.6f}"
                )
    return "\n".join(lines)
