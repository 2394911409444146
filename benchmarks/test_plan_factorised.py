"""BENCH — the factorised chase vs the pairwise reference chase.

Acceptance benchmark for ``repro.plan.factorise``: on a high-duplication
workload (few distinct card holders, many near-identical billing records
— :func:`repro.datagen.high_duplication_dataset`), the production kernel
:func:`~repro.plan.executor.chase_factorised` — grouping candidate pairs
by their distinct LHS value-pair signature and evaluating one rule
verdict per group — must charge **≥ 3× fewer** predicate evaluations
than the pairwise reference kernel :func:`~repro.plan.executor.chase` —
measured by the plan's own counters — while deciding identical matches,
which the run checks pair by pair before reporting anything.

Cost accounting: the pairwise kernel's probe cost is the delta of
``metric_evaluations + cache_hits`` (every per-pair predicate probe,
whether or not the similarity memo absorbed it); the factorised kernel's
cost is the delta of ``value_pairs_evaluated`` (one probe per compiled
atom per *distinct* value pair, verdict-cache hits free).  Both runs use
a fresh plan so neither inherits the other's caches.

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
from repro.datagen import high_duplication_dataset
from repro.datagen.schemas import extended_mds
from repro.experiments.harness import resolution_spec_document, timed
from repro.plan.executor import chase, chase_factorised

from conftest import factorised_size


def _emit(payload):
    text = json.dumps(payload, sort_keys=True)
    print()
    print(text)
    sink = os.environ.get("REPRO_BENCH_JSON")
    if sink:
        with Path(sink).open("a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def run_factorised_point(size: int, seed: int = 3):
    """Factorised vs pairwise chase on one high-duplication workload."""
    dataset = high_duplication_dataset(size, seed=seed)
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "hash", "key_length": 2},
        execution={"mode": "enforce"},
    )

    def run(kernel):
        # A fresh workspace per run: the similarity memo and the
        # group-verdict cache must not leak between the two kernels.
        workspace = Workspace.from_dict(document)
        plan = workspace.plan
        pairs = plan.candidates(dataset.credit, dataset.billing)
        instance = InstancePair(plan.pair, dataset.credit, dataset.billing)
        probes_before = plan.stats.metric_evaluations + plan.stats.cache_hits
        value_pairs_before = plan.stats.value_pairs_evaluated
        result, seconds = timed(kernel, plan, instance, candidate_pairs=pairs)
        target_pairs = plan.target.attribute_pairs()
        matches = [
            pair for pair in pairs if result.identified(*pair, target_pairs)
        ]
        return {
            "workspace": workspace,
            "pairs": pairs,
            "matches": matches,
            "probes": plan.stats.metric_evaluations
            + plan.stats.cache_hits
            - probes_before,
            "value_pairs": plan.stats.value_pairs_evaluated
            - value_pairs_before,
            "stats": plan.stats,
            "seconds": seconds,
        }

    factorised = run(chase_factorised)
    pairwise = run(chase)
    saving = pairwise["probes"] / max(1, factorised["value_pairs"])
    registry = factorised["workspace"].metrics
    registry.count("factorised.candidates", len(factorised["pairs"]))
    registry.count("factorised.matches", len(factorised["matches"]))
    registry.count("factorised.pairwise_evaluations", pairwise["probes"])
    registry.observe("factorised.seconds", factorised["seconds"])
    registry.observe("factorised.pairwise_seconds", pairwise["seconds"])
    return {
        "benchmark": "plan_factorised",
        "K": size,
        "entities": len(dataset.credit),
        "candidates": len(factorised["pairs"]),
        "groups": factorised["stats"].groups_built,
        "factorisation_ratio": factorised["stats"].factorisation_ratio,
        "matches": len(factorised["matches"]),
        "matches_identical": int(
            factorised["matches"] == pairwise["matches"]
        ),
        "factorised_evaluations": factorised["value_pairs"],
        "pairwise_evaluations": pairwise["probes"],
        "evaluation_saving": round(saving, 4),
        "factorised_seconds": factorised["seconds"],
        "pairwise_seconds": pairwise["seconds"],
        "metrics": registry.as_dict(),
    }


def test_factorised_fewer_evaluations_than_pairwise(benchmark):
    """Group-at-a-time verdicts beat per-pair probing ≥ 3× at equal results."""
    size = factorised_size()
    record = benchmark.pedantic(
        run_factorised_point, args=(size,), kwargs={"seed": 3},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    _emit(record)
    assert record["candidates"] > 0
    assert record["matches"] > 0
    assert record["matches_identical"] == 1
    # Factorisation actually collapsed pairs onto fewer signatures.
    assert record["groups"] < record["candidates"]
    # The acceptance criterion: the factorised kernel charges at least
    # 3x fewer predicate evaluations than the pairwise kernel.
    assert record["factorised_evaluations"] * 3 <= record["pairwise_evaluations"]
