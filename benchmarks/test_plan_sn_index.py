"""BENCH — the window-encoded sorted-neighborhood index.

Acceptance benchmark for ``repro.plan.sn_index``: on the generated
K-record credit/billing dataset under a sorted-neighborhood spec
(window 10), the rank-encoded index must

* split its window candidates at block boundaries into **many
  connected components** — the legacy global-window backend chained
  every pair into one;
* decide **identical matches** when each component is chased on its
  own and when all candidates are chased at once (checked pair by pair
  before anything is reported);
* **stream to the batch candidate universe**: replaying the dataset
  through ``Workspace.stream`` (the incremental rank encoding, one
  ``bisect.insort`` per pass per record) must leave the live index
  describing exactly the batch run's candidate pairs.

Results are printed as one JSON document and appended to
``REPRO_BENCH_JSON`` when set; CI schema-checks the output with
``benchmarks/check_bench_json.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.api import Workspace
from repro.core.semantics import InstancePair
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import arrival_stream
from repro.experiments.harness import resolution_spec_document, timed
from repro.plan.shard import shard_pairs

from conftest import sn_index_size

WINDOW = 10


def _emit(payload):
    text = json.dumps(payload, sort_keys=True)
    print()
    print(text)
    sink = os.environ.get("REPRO_BENCH_JSON")
    if sink:
        with Path(sink).open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _document(dataset):
    return resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "sorted-neighborhood", "window": WINDOW},
        execution={"mode": "enforce"},
    )


def run_sn_point(size: int, seed: int = 3):
    """Whole vs per-component SN chase, plus the streamed-index differential."""
    dataset = generate_dataset(size, seed=seed)
    workspace = Workspace.from_dict(_document(dataset))
    plan = workspace.plan
    candidates = plan.candidates(dataset.credit, dataset.billing)
    instance = InstancePair(plan.pair, dataset.credit, dataset.billing)
    target_pairs = plan.target.attribute_pairs()

    def matches(result, pairs):
        return [
            pair for pair in pairs if result.identified(*pair, target_pairs)
        ]

    whole_result, whole_seconds = timed(
        plan.enforce, instance, candidate_pairs=candidates
    )
    whole_matches = matches(whole_result, candidates)
    components = shard_pairs(candidates)
    component_matches = []
    for component in components:
        pairs = list(component.pairs)
        component_matches.extend(
            matches(plan.enforce(instance, candidate_pairs=pairs), pairs)
        )

    # Streamed-index differential: replay the dataset through the
    # incremental rank encoding and compare candidate universes.
    stream_workspace = Workspace.from_dict(_document(dataset))
    matcher = stream_workspace.stream()
    for event in arrival_stream(dataset, seed=seed).events:
        matcher.ingest(event.side, event.values, tid=event.tid)
    stream_index = matcher.store.blocking
    stream_candidates = stream_index.scan_candidates()

    registry = workspace.metrics
    registry.count("sn_index.components", len(components))
    return {
        "metrics": registry.as_dict(),
        "benchmark": "sn_index",
        "K": size,
        "candidates": len(candidates),
        "blocks": stream_index.block_count(),
        "components": len(components),
        "largest_component_pairs": max(len(c) for c in components),
        "matches": len(whole_matches),
        "matches_identical": int(
            sorted(component_matches) == sorted(whole_matches)
        ),
        "stream_candidates_identical": int(
            stream_candidates == sorted(candidates)
        ),
        "chase_seconds": whole_seconds,
    }


def test_sn_index_shards_and_streams(benchmark):
    """Block-split candidates chase per component; streamed ≡ batch."""
    record = benchmark.pedantic(
        run_sn_point, args=(sn_index_size(),),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    _emit(record)
    assert record["candidates"] > 0
    assert record["matches"] > 0
    assert record["blocks"] > 1
    assert record["components"] > 1
    # Differential acceptance: chase locality holds on real SN output.
    assert record["matches_identical"] == 1
    # The streamed index converges on the batch candidate universe.
    assert record["stream_candidates_identical"] == 1
