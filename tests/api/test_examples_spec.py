"""Acceptance: the checked-in examples/spec.json drives all three modes.

``Workspace.match``, ``Workspace.stream().ingest_stream`` and
``repro match --spec`` must produce identical match pairs on the
checked-in Fig. 1 data, each run compiling its plan exactly once
(asserted via ``PlanStats.compiles``).
"""

import json
from pathlib import Path

import pytest

from repro.api import ResolutionSpec, Workspace
from repro.cli import main
from repro.core.schema import LEFT, RIGHT
from repro.relations.csvio import load_relation

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = REPO_ROOT / "examples" / "spec.json"
CREDIT_CSV = REPO_ROOT / "examples" / "data" / "credit.csv"
BILLING_CSV = REPO_ROOT / "examples" / "data" / "billing.csv"


@pytest.fixture(scope="module")
def example_workspace():
    return Workspace.from_file(SPEC_PATH)


@pytest.fixture(scope="module")
def example_relations(example_workspace):
    pair = example_workspace.plan.pair
    return (
        load_relation(pair.left, CREDIT_CSV),
        load_relation(pair.right, BILLING_CSV),
    )


def test_example_spec_is_valid_and_versioned():
    document = json.loads(SPEC_PATH.read_text())
    assert document["version"] == 1
    assert ResolutionSpec.validate_document(document) == []


def test_example_spec_fingerprint_is_pinned():
    """Existing stores and snapshots embed this fingerprint; keep it.

    Older saves of the same spec also carry the retired no-op keys
    ``execution.workers: 1`` and ``execution.factorised: true``; they
    must load to the same fingerprint.
    """
    assert ResolutionSpec.from_file(SPEC_PATH).fingerprint() == "bb08144399820b1a"
    document = json.loads(SPEC_PATH.read_text())
    document["execution"].update(workers=1, factorised=True)
    assert ResolutionSpec.from_dict(document).fingerprint() == "bb08144399820b1a"


def test_cli_spec_validate_accepts_it(capsys):
    assert main(["spec", "validate", str(SPEC_PATH)]) == 0
    assert "OK:" in capsys.readouterr().out


def test_three_modes_produce_identical_pairs(example_workspace, example_relations, capsys):
    workspace = example_workspace
    credit, billing = example_relations

    # Mode 1: batch Workspace.match (compiles this workspace's plan once).
    report = workspace.match(credit, billing)
    batch_pairs = set(report.matches)
    assert batch_pairs
    assert report.stats["compiles"] == 1

    # Mode 2: streaming through the same workspace — same plan object,
    # still exactly one compile.
    matcher = workspace.stream()
    events = [(LEFT, row.values()) for row in credit] + [
        (RIGHT, row.values()) for row in billing
    ]
    matcher.ingest_stream(events)
    stream_pairs = {
        pair
        for cluster in matcher.store.clusters()
        for pair in cluster.implied_pairs()
    }
    assert workspace.plan.stats.compiles == 1

    # Mode 3: the CLI, spec-driven; its fresh workspace also compiles once.
    assert main([
        "match", "--spec", str(SPEC_PATH),
        "--left", str(CREDIT_CSV), "--right", str(BILLING_CSV),
        "--json",
    ]) == 0
    cli_report = json.loads(capsys.readouterr().out)
    cli_pairs = {tuple(pair) for pair in cli_report["matches"]}
    assert cli_report["stats"]["compiles"] == 1
    assert cli_report["spec_fingerprint"] == workspace.fingerprint

    assert batch_pairs == stream_pairs == cli_pairs


def test_engine_ingest_embeds_the_spec_fingerprint(tmp_path, capsys):
    store_path = tmp_path / "store.json"
    assert main([
        "engine", "ingest", "--spec", str(SPEC_PATH),
        "--store", str(store_path),
        "--left", str(CREDIT_CSV), "--right", str(BILLING_CSV),
        "--json",
    ]) == 0
    stats = json.loads(capsys.readouterr().out)
    expected = ResolutionSpec.from_file(SPEC_PATH).fingerprint()
    assert stats["spec_fingerprint"] == expected
    snapshot = json.loads(store_path.read_text())
    assert snapshot["spec_fingerprint"] == expected
