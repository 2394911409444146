"""Shared helpers: percentiles, correctness gates, datasets and specs.

The workloads are built here from the benchmark's seed; the program
under test only ever sees the generated relations, streams and specs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.metrics import percentile

#: Datasets are drawn from a fixed pool of this many generator seeds,
#: so every dataset a run can see has outputs recorded in
#: ``expected.json`` (the exact-output gate of the match workloads).
DATASET_POOL = 32

#: Percentiles tried, highest first, when reporting a tail.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class GateFailure(Exception):
    """An output check failed: the run must report no numbers."""


def dataset_seed(seed: int) -> int:
    return seed % DATASET_POOL


def supported_percentile(count: int, wanted: float) -> float:
    """``wanted``, or the next lower percentile of :data:`TAIL_LADDER`
    that has at least :data:`MIN_BEYOND` of ``count`` samples beyond it."""
    for q in TAIL_LADDER:
        if q <= wanted and count * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return 50.0


def tail(values: Sequence[float], wanted: float) -> Tuple[str, float]:
    """``(label, value)`` of the highest supported percentile <= wanted."""
    q = supported_percentile(len(values), wanted)
    return f"p{q:g}", percentile(values, q)


def named_tail(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` of a metric whose name states ``q``; the caller
    must have collected enough samples for it."""
    if supported_percentile(len(values), q) != q:
        raise RuntimeError(f"{len(values)} samples cannot support p{q:g}")
    return percentile(values, q)


#: Seconds :func:`calibration_pass` takes on the reference host: about
#: its typical time on a shared 2.1 GHz x86-64 vCPU with CPython 3.11.
#: CPU-bound timings are reported scaled to that speed; see
#: :func:`host_factor`.
REFERENCE_CALIBRATION_S = 0.15


def calibration_pass(iterations: int = 100000) -> float:
    """Time a fixed pure-Python workload: tuple hashing, dict lookups,
    string formatting and a small union-find, the interpreter work the
    matcher is made of.  Returns its wall seconds."""
    started = time.perf_counter()
    parent: Dict[object, object] = {}

    def find(node):
        while True:
            up = parent.get(node, node)
            if up == node:
                return node
            node = up

    for i in range(iterations):
        a = (i % 997, "k%d" % (i % 101))
        b = (i % 991, "k%d" % (i % 89))
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b
    return time.perf_counter() - started


def host_factor(before: float, after: float) -> float:
    """Reference speed ÷ current speed, from the calibration passes run
    just before and just after a measurement.

    The host this benchmark runs on is shared, and its speed drifts by
    tens of percent within a minute; a CPU-bound time multiplied by this
    factor reads what it would on the reference host, so runs made at
    different moments compare."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2.0)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pair_digest(pairs: Iterable[Tuple[int, int]]) -> str:
    ordered = sorted((int(a), int(b)) for a, b in pairs)
    return hashlib.sha256(json.dumps(ordered).encode()).hexdigest()[:16]


def cluster_key(clusters) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Clusters as a sorted, comparable list of (left tids, right tids)."""
    return sorted(
        (tuple(sorted(c.left_tids)), tuple(sorted(c.right_tids)))
        for c in clusters
    )


def quality(found: Iterable[Tuple[int, int]], truth) -> Tuple[float, float]:
    """(precision, recall) of found pairs against the true matches."""
    found = set(found)
    truth = set(truth)
    hits = len(found & truth)
    precision = hits / len(found) if found else 0.0
    recall = hits / len(truth) if truth else 0.0
    return precision, recall


def implied_pairs(clusters) -> set:
    pairs = set()
    for cluster in clusters:
        pairs |= cluster.implied_pairs()
    return pairs


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Workload inputs
# ----------------------------------------------------------------------

#: Per-workload sizes; ``tiny`` serves the smoke test.
SIZES = {
    "full": {"match-dup": 6000, "match-clean": 4000, "stream-memory": 1500,
             "serve-durable": 2000},
    "tiny": {"match-dup": 300, "match-clean": 300, "stream-memory": 200,
             "serve-durable": 800},
}


def build_spec(dataset, backend: str, **blocking):
    """The workloads' spec: extended MDs, enforce mode, top-5 RCKs."""
    from repro.api import Workspace
    from repro.datagen.schemas import extended_mds

    return (
        Workspace.builder()
        .pair(dataset.pair)
        .target(dataset.target)
        .mds(extended_mds(dataset.pair))
        .blocking(backend, **blocking)
        .execution(top_k=5, mode="enforce")
    )


def sn_blocking() -> Dict[str, object]:
    """The sorted-neighborhood section of ``examples/spec.json``."""
    return {"encode": ["FN", "LN"], "key_length": 1, "window": 10}


def match_inputs(workload: str, seed: int, size: str):
    """(dataset, spec) of a match workload."""
    from repro.datagen.generator import generate_dataset, high_duplication_dataset

    records = SIZES[size][workload]
    if workload == "match-dup":
        dataset = high_duplication_dataset(records, seed=dataset_seed(seed))
        spec = build_spec(dataset, "hash", key_length=2).build()
    else:
        dataset = generate_dataset(records, seed=dataset_seed(seed))
        spec = build_spec(dataset, "sorted-neighborhood", **sn_blocking()).build()
    return dataset, spec
