"""Differential suite for sorted-neighborhood specs: stream ≡ batch, block ≡ whole.

The acceptance criteria of the window-encoded SN index, end-to-end
through the spec API:

* a **streaming** SN run (``Workspace.stream``) converges to the same
  clusters and the same candidate universe as the **batch** run of the
  same spec — for every :mod:`repro.datagen.streams` arrival scenario,
  on both store backends (memory and SQLite);
* SN candidates split at block boundaries into many connected
  components, and chasing each component on its own decides exactly the
  batch run's matches, as does chasing them dealt into 2 or 4 shards —
  the legacy backend chained every pair into one component;
* a store that cannot honor the spec's declared blocking backend is
  rejected with :class:`~repro.api.spec.SpecError` — never the silent
  hash substitution this suite exists to prevent (CLI exit 2 covered in
  ``tests/test_cli.py``).
"""

from __future__ import annotations

import pytest

from repro.api import Workspace
from repro.api.spec import SpecError
from repro.core.semantics import InstancePair
from repro.datagen.generator import generate_dataset
from repro.datagen.schemas import extended_mds
from repro.datagen.streams import (
    arrival_stream,
    duplicate_burst_stream,
    late_duplicate_stream,
)
from repro.engine.store import MatchStore
from repro.experiments.harness import resolution_spec_document
from repro.plan import shard_pairs

SCENARIOS = {
    "arrival": arrival_stream,
    "duplicate-burst": duplicate_burst_stream,
    "late-duplicate": late_duplicate_stream,
}

STORE_BACKENDS = ("memory", "sqlite")


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(120, seed=3)


def _document(dataset, **overrides):
    document = resolution_spec_document(
        dataset.pair,
        dataset.target,
        extended_mds(dataset.pair),
        blocking={"backend": "sorted-neighborhood", "window": 10},
        execution={"mode": "enforce"},
    )
    document.update(overrides)
    return document


@pytest.fixture(scope="module")
def batch_reference(dataset):
    """The batch run every other run must agree with."""
    workspace = Workspace.from_dict(_document(dataset))
    report = workspace.match(dataset.credit, dataset.billing)
    candidates = workspace.plan.candidates(dataset.credit, dataset.billing)
    return {
        "matches": report.matches,
        "clusters": report.clusters,
        "fingerprint": report.fingerprint,
        "candidates": sorted(candidates),
    }


def _cluster_set(store):
    return sorted(
        (tuple(sorted(cluster.left_tids)), tuple(sorted(cluster.right_tids)))
        for cluster in store.clusters()
    )


def _batch_cluster_set(clusters):
    return sorted(
        (tuple(sorted(cluster.left_tids)), tuple(sorted(cluster.right_tids)))
        for cluster in clusters
    )


@pytest.mark.parametrize("store_backend", STORE_BACKENDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS), ids=sorted(SCENARIOS))
def test_streaming_sn_equals_batch(
    scenario, store_backend, dataset, batch_reference, tmp_path
):
    """Satellite (1): an SN-spec stream converges to the batch run."""
    overrides = {}
    if store_backend == "sqlite":
        overrides["persistence"] = {
            "backend": "sqlite",
            "path": str(tmp_path / f"{scenario}.db"),
        }
    workspace = Workspace.from_dict(_document(dataset, **overrides))
    matcher = workspace.stream()
    store = matcher.store
    assert store.blocking.family == "sorted-neighborhood"
    for event in SCENARIOS[scenario](dataset, seed=5).events:
        # Dataset tids are preserved so clusters and candidate pairs are
        # directly comparable with the batch run's.
        matcher.ingest(event.side, event.values, tid=event.tid)

    # Identical clusters, and the identical candidate universe: the
    # live rank runs describe exactly the batch window pairs.
    assert _cluster_set(store) == _batch_cluster_set(
        batch_reference["clusters"]
    )
    if store_backend == "memory":
        assert (
            store.blocking.scan_candidates() == batch_reference["candidates"]
        )
    else:
        assert store.blocking.candidates() == batch_reference["candidates"]
    assert workspace.fingerprint == batch_reference["fingerprint"]

    # The obs counters prove the SN path actually ran.
    assert workspace.metrics.counters["engine.sn_probes"] > 0
    assert workspace.metrics.gauges["engine.sn_blocks"] > 1
    store.close()


def test_sn_blocks_chase_independently(dataset, batch_reference):
    """SN candidates split into components; each chases on its own."""
    workspace = Workspace.from_dict(_document(dataset))
    plan = workspace.plan
    candidates = plan.candidates(dataset.credit, dataset.billing)
    components = shard_pairs(candidates)
    assert len(components) > 1
    instance = InstancePair(plan.pair, dataset.credit, dataset.billing)
    target_pairs = plan.target.attribute_pairs()
    matches = []
    for component in components:
        result = plan.enforce(instance, candidate_pairs=list(component.pairs))
        matches.extend(
            pair
            for pair in component.pairs
            if result.identified(*pair, target_pairs)
        )
    assert sorted(matches) == sorted(batch_reference["matches"])


@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_sn_equals_serial(shards, dataset, batch_reference):
    """SN components dealt into ``shards`` groups chase to the batch matches.

    Each group is a union of whole components, chased as one candidate
    set; the union of the groups' matches is the serial batch report's.
    """
    workspace = Workspace.from_dict(_document(dataset))
    plan = workspace.plan
    components = shard_pairs(plan.candidates(dataset.credit, dataset.billing))
    assert len(components) >= shards
    groups = [
        [
            pair
            for component in components[start::shards]
            for pair in component.pairs
        ]
        for start in range(shards)
    ]
    assert all(groups)
    instance = InstancePair(plan.pair, dataset.credit, dataset.billing)
    target_pairs = plan.target.attribute_pairs()
    matches = []
    for group in groups:
        result = plan.enforce(instance, candidate_pairs=group)
        matches.extend(
            pair for pair in group if result.identified(*pair, target_pairs)
        )
    assert sorted(matches) == sorted(batch_reference["matches"])


class TestStreamGuard:
    """The silent hash substitution is dead: mismatches raise SpecError."""

    def test_hash_built_store_rejected_under_sn_spec(self, dataset):
        sn_workspace = Workspace.from_dict(_document(dataset))
        plan = sn_workspace.plan
        hash_store = MatchStore(
            plan.target, plan.rcks, blocking_backend="hash"
        )
        hash_store.spec_fingerprint = sn_workspace.fingerprint
        with pytest.raises(SpecError, match="streams under 'hash'"):
            sn_workspace.stream(store=hash_store)

    def test_unsupported_backend_rejected(self, dataset, monkeypatch):
        workspace = Workspace.from_dict(_document(dataset))
        monkeypatch.setattr(MatchStore, "supported_blocking", ("hash",))
        store = MatchStore(
            workspace.plan.target, workspace.plan.rcks,
            blocking_backend="hash",
        )
        store.spec_fingerprint = workspace.fingerprint
        with pytest.raises(SpecError, match="cannot stream under"):
            workspace.stream(store=store)

    def test_sqlite_store_from_other_blocking_config_rejected(
        self, dataset, tmp_path
    ):
        path = str(tmp_path / "store.db")
        hash_doc = _document(
            dataset, persistence={"backend": "sqlite", "path": path}
        )
        hash_doc["blocking"] = {"backend": "hash", "key_length": 1}
        Workspace.from_dict(hash_doc).open_store().close()
        sn_doc = _document(
            dataset, persistence={"backend": "sqlite", "path": path}
        )
        with pytest.raises(SpecError, match="blocking"):
            Workspace.from_dict(sn_doc).open_store()

    def test_matching_sn_store_streams_fine(self, dataset, tmp_path):
        document = _document(
            dataset,
            persistence={
                "backend": "sqlite",
                "path": str(tmp_path / "ok.db"),
            },
        )
        workspace = Workspace.from_dict(document)
        matcher = workspace.stream()
        assert matcher.store.blocking.family == "sorted-neighborhood"
        matcher.store.close()


def test_sn_spec_window_in_fingerprint(dataset):
    """The window is semantics, not a deployment knob: it fingerprints."""
    narrow = Workspace.from_dict(_document(dataset))
    wide_doc = _document(dataset)
    wide_doc["blocking"]["window"] = 20
    wide = Workspace.from_dict(wide_doc)
    assert narrow.fingerprint != wide.fingerprint
