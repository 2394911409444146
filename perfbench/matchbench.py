"""``match-dup`` and ``match-clean``: one-shot ``Workspace.match`` runs.

Every timed repetition builds a fresh ``Workspace`` (compiled outside
the timed region), so the similarity memo and the verdict cache start
cold, as they do for a user's one-shot ``repro match``.  Each repetition
is bracketed by calibration passes, and its times are scaled to the
reference host speed (:func:`common.host_factor`).  Timings are medians
over the repetitions that fit in the run.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import (
    GateFailure,
    calibration_pass,
    dataset_seed,
    host_factor,
    match_inputs,
    median,
    metric,
    pair_digest,
    peak_rss_mb,
    quality,
)

EXPECTED = Path(__file__).with_name("expected.json")

MIN_REPS = 3

#: Per-layer metrics each workload does not measure (names, or prefixes
#: ending in "."): the match workloads call no engine or server.
NOT_MEASURED = {
    "match-dup": ("engine.", "serve.", "load."),
    "match-clean": ("engine.", "serve.", "load."),
}


def compile_workspace(spec):
    from repro.api import Workspace

    workspace = Workspace(spec)
    workspace.plan
    return workspace


def outcome(report) -> Dict[str, object]:
    """What the exact-output gate compares."""
    return {
        "digest": pair_digest(report.matches),
        "candidates": len(report.candidates),
        "clusters": len(report.clusters),
    }


def expected_outcome(workload: str, seed: int):
    table = json.loads(EXPECTED.read_text())
    return table[workload][str(dataset_seed(seed))]


class Reps:
    """Per-repetition records of one timed loop."""

    def __init__(self) -> None:
        self.compile_s: List[float] = []
        self.match_s: List[float] = []
        self.factors: List[float] = []
        self.outcomes: List[Dict[str, object]] = []
        self.first = None

    def scaled(self, values: List[float]) -> List[float]:
        return [value * factor for value, factor in zip(values, self.factors)]


def timed_matches(spec, dataset, seconds: float,
                  on_rep: Optional[Callable] = None) -> Reps:
    """Fresh-workspace matches, each bracketed by calibration passes,
    until ``seconds`` pass (at least :data:`MIN_REPS`).  ``on_rep`` sees
    every (workspace, report) right after its match."""
    reps = Reps()
    deadline = time.perf_counter() + seconds
    before = calibration_pass()
    while len(reps.match_s) < MIN_REPS or time.perf_counter() < deadline:
        started = time.perf_counter()
        workspace = compile_workspace(spec)
        reps.compile_s.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        report = workspace.match(dataset.credit, dataset.billing)
        reps.match_s.append(time.perf_counter() - started)
        after = calibration_pass()
        reps.factors.append(host_factor(before, after))
        before = after
        reps.outcomes.append(outcome(report))
        if reps.first is None:
            reps.first = report
        if on_rep is not None:
            on_rep(workspace, report)
        del workspace, report
    return reps


def check(reps: Reps, expected) -> None:
    """Every repetition reproduces the recorded output exactly."""
    for index, got in enumerate(reps.outcomes):
        if expected is not None and got != expected:
            raise GateFailure(
                f"repetition {index}: output {got} differs from the "
                f"recorded {expected}"
            )
        if got != reps.outcomes[0]:
            raise GateFailure(f"repetition {index} differs from repetition 0")


def end_to_end(spec, dataset, seconds, expected) -> Dict[str, object]:
    reps = timed_matches(spec, dataset, seconds)
    check(reps, expected)
    records = len(dataset.credit) + len(dataset.billing)
    wall = median(reps.scaled(reps.match_s))
    precision, recall = quality(reps.first.matches, dataset.true_matches)
    print(f"# {len(reps.match_s)} matches of {records} records: measured median "
          f"{median(reps.match_s):.4f} s (min {min(reps.match_s):.4f}, max "
          f"{max(reps.match_s):.4f}); host factor median {median(reps.factors):.3f}; "
          f"at reference speed {wall:.4f} s")
    return {
        "attempted": len(reps.match_s),
        "metrics": {
            "setup_s": metric(median(reps.scaled(reps.compile_s)), "s"),
            "records_per_s": metric(records / wall, "1/s"),
            "latency_p50_ms": metric(wall * 1000.0, "ms"),
            "precision": metric(precision, "ratio"),
            "recall": metric(recall, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
    }


def per_layer(spec, dataset, seconds, expected, out_dir: Path) -> Dict[str, object]:
    """Half the run untraced, half traced; layer figures are per-rep means
    of the traced half."""
    from layers import LayerTrace, merge_totals, print_self_times, self_s, total_s

    plain = timed_matches(spec, dataset, seconds / 2)
    check(plain, expected)

    trace = LayerTrace()
    sums: Dict[str, float] = {}
    table: Dict[str, Dict[str, float]] = {}

    def add(name, value):
        sums[name] = sums.get(name, 0.0) + value

    def fold(workspace, report):
        totals = trace.totals()
        merge_totals(table, totals)
        stats = workspace.plan.stats
        for name in ("core.find_rcks", "plan.candidates", "plan.enforce"):
            add(name + ".total", total_s(totals, name))
        for name in ("api.match", "plan.enforce", "plan.group_verdict",
                     "plan.evaluate"):
            add(name + ".self", self_s(totals, name))
        add("evals", stats.metric_evaluations)
        add("hits", stats.cache_hits)
        add("groups", stats.groups_built)
        add("pairs", stats.pairs_compared)
        add("chases", stats.enforcements)
        add("rounds", stats.chase_rounds)
        add("applications", stats.rule_applications)
        add("candidates", len(report.candidates))
        add("matches", len(report.matches))
        add("unions", trace.union_calls)
        add("merges", trace.union_merges)
        trace.union_calls = trace.union_merges = 0
        # Keep the spans of the latest repetition only.
        trace.write(out_dir / "spans.json")
        trace.tracer.roots.clear()

    trace.install()
    trace.count_unions()
    try:
        traced = timed_matches(spec, dataset, seconds / 2, on_rep=fold)
    finally:
        trace.uninstall()
    check(traced, expected)

    count = len(traced.match_s)
    mean = {name: value / count for name, value in sums.items()}
    lookups = mean["evals"] + mean["hits"]
    plain_s = median(plain.scaled(plain.match_s))
    traced_s = median(traced.scaled(traced.match_s))
    layer = {
        "api.compile_s": metric(median(traced.scaled(traced.compile_s)), "s"),
        "api.provenance_s": metric(mean["api.match.self"], "s"),
        "core.find_rcks_s": metric(mean["core.find_rcks.total"], "s"),
        "plan.blocking_s": metric(mean["plan.candidates.total"], "s"),
        "plan.candidates": metric(mean["candidates"], "count"),
        "plan.match_yield": metric(mean["matches"] / max(mean["candidates"], 1), "ratio"),
        "plan.verdict_s": metric(mean["plan.group_verdict.self"], "s"),
        "plan.evaluate_s": metric(mean["plan.evaluate.self"], "s"),
        "plan.predicate_evals": metric(mean["evals"], "count"),
        "plan.cache_hit_ratio": metric(mean["hits"] / lookups if lookups else 0.0, "ratio"),
        "plan.groups": metric(mean["groups"], "count"),
        "plan.pairs_per_group": metric(mean["pairs"] / max(mean["groups"], 1), "ratio"),
        "plan.chase_s": metric(mean["plan.enforce.total"], "s"),
        "plan.chase_self_s": metric(mean["plan.enforce.self"], "s"),
        "plan.chases": metric(mean["chases"], "count"),
        "plan.chase_rounds": metric(mean["rounds"], "count"),
        "plan.rule_applications": metric(mean["applications"], "count"),
        "plan.union_calls": metric(mean["unions"], "count"),
        "plan.union_merge_ratio": metric(mean["merges"] / max(mean["unions"], 1), "ratio"),
        "trace.overhead": metric(traced_s / plain_s, "ratio"),
    }
    print_self_times(table, count, "match")
    print(f"# {len(plain.match_s)} untraced and {count} traced matches; medians "
          f"at reference speed {plain_s:.4f} s untraced, {traced_s:.4f} s traced")
    return {"attempted": len(plain.match_s) + count, "metrics": layer}


def run(workload: str, seed: int, seconds: float, traced: bool, size: str,
        out_dir: Path) -> Dict[str, object]:
    dataset, spec = match_inputs(workload, seed, size)
    expected = expected_outcome(workload, seed) if size == "full" else None
    if traced:
        return per_layer(spec, dataset, seconds, expected, out_dir)
    return end_to_end(spec, dataset, seconds, expected)
