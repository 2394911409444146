"""ResolutionSpec: round trip, validation, fingerprints, builder."""

import json

import pytest

from repro.api import (
    SPEC_VERSION,
    ResolutionSpec,
    SpecBuilder,
    SpecError,
    Workspace,
)
from repro.datagen.schemas import paper_mds


@pytest.fixture
def document(pair, target, sigma):
    return (
        SpecBuilder()
        .pair(pair)
        .target(target)
        .mds(sigma)
        .document()
    )


class TestRoundTrip:
    def test_to_dict_is_a_fixed_point(self, document):
        spec = ResolutionSpec.from_dict(document)
        canonical = spec.to_dict()
        again = ResolutionSpec.from_dict(canonical)
        assert again == spec
        assert again.to_dict() == canonical

    def test_workspace_round_trip(self, document):
        """spec → Workspace → to_dict() → spec is a fixed point."""
        workspace = Workspace.from_dict(document)
        rebuilt = ResolutionSpec.from_dict(workspace.spec.to_dict())
        assert rebuilt == workspace.spec
        assert rebuilt.fingerprint() == workspace.fingerprint

    def test_json_round_trip(self, document, tmp_path):
        spec = ResolutionSpec.from_dict(document)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ResolutionSpec.from_file(path) == spec

    def test_defaults_are_filled_in(self, document):
        spec = ResolutionSpec.from_dict(document)
        assert spec.version == SPEC_VERSION
        assert spec.blocking_backend == "sorted-neighborhood"
        assert spec.policy == "prefer-informative"
        assert spec.mode == "enforce"
        assert spec.cache is True

    def test_explicit_rcks_round_trip(self, document, target):
        document["rules"]["rcks"] = [
            [["email", "email", "="], ["tel", "phn", "="]]
        ]
        spec = ResolutionSpec.from_dict(document)
        keys = spec.explicit_rcks(target)
        assert len(keys) == 1
        assert ResolutionSpec.from_dict(spec.to_dict()) == spec

    def test_md_text_block_is_split_into_lines(self, pair, target, sigma):
        from repro.core.parser import format_md

        text = "# rules\n" + "\n".join(format_md(md) for md in sigma) + "\n"
        spec = SpecBuilder().pair(pair).target(target).mds(text).build()
        assert len(spec.mds) == len(sigma)


class TestFingerprint:
    def test_stable_across_key_order(self, document):
        shuffled = json.loads(
            json.dumps(document, sort_keys=True)
        )
        assert (
            ResolutionSpec.from_dict(shuffled).fingerprint()
            == ResolutionSpec.from_dict(document).fingerprint()
        )

    def test_changes_on_material_change(self, document):
        base = ResolutionSpec.from_dict(document).fingerprint()
        document["rules"]["top_k"] = 3
        assert ResolutionSpec.from_dict(document).fingerprint() != base

    def test_workers_is_not_material(self, document):
        """The retired no-op keys older saved specs carry change nothing.

        Every earlier ``spec.save()`` wrote ``"workers": 1`` and
        ``"factorised": true``.  Engine snapshots embed the fingerprint,
        so such a spec must load with the fingerprint it had, and its
        canonical form drops the keys.
        """
        base = ResolutionSpec.from_dict(document)
        document["execution"] = {"workers": 1, "factorised": True}
        spec = ResolutionSpec.from_dict(document)
        assert spec == base
        assert spec.fingerprint() == base.fingerprint()
        assert "workers" not in spec.to_dict()["execution"]
        assert "factorised" not in spec.to_dict()["execution"]


class TestValidation:
    def test_unknown_version_is_actionable(self, document):
        document["version"] = 99
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        assert "unsupported spec version 99" in str(excinfo.value)
        assert str(SPEC_VERSION) in str(excinfo.value)

    def test_unknown_metric_is_actionable(self, document):
        document["rules"]["mds"] = [
            "credit[FN] ~nosuch(0.8) billing[FN] -> "
            "credit[LN] <=> billing[LN]"
        ]
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        message = str(excinfo.value)
        assert "nosuch" in message
        assert "registered metrics" in message  # names what IS available

    def test_unknown_metric_binding_target(self, document):
        document["metrics"] = {"edit": "nosuch"}
        with pytest.raises(SpecError, match="registered metrics"):
            ResolutionSpec.from_dict(document)

    def test_metric_binding_enables_alias_operator(self, document):
        document["metrics"] = {"edit": "dl"}
        document["rules"]["mds"] = [
            "credit[FN] ~edit(0.8) billing[FN] -> "
            "credit[LN] <=> billing[LN]"
        ]
        spec = ResolutionSpec.from_dict(document)
        assert spec.build_registry().resolve("edit(0.8)")("Mark", "Marx")

    def test_unknown_blocking_backend_is_actionable(self, document):
        document["blocking"] = {"backend": "bogus"}
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        assert "sorted-neighborhood" in str(excinfo.value)

    @pytest.mark.parametrize("window", [0, 1, -5])
    def test_window_below_two_is_actionable(self, document, window):
        # A window of 0 or 1 can never pair two records; accepting it
        # silently produced empty candidate sets.
        document["blocking"] = {
            "backend": "sorted-neighborhood",
            "window": window,
        }
        errors = ResolutionSpec.validate_document(document)
        assert any("blocking.window" in error for error in errors)
        assert any("at least 2" in error for error in errors)
        with pytest.raises(SpecError, match="blocking.window"):
            ResolutionSpec.from_dict(document)

    @pytest.mark.parametrize("window", ["ten", None, 2.5, True])
    def test_non_int_window_rejected(self, document, window):
        document["blocking"] = {
            "backend": "sorted-neighborhood",
            "window": window,
        }
        errors = ResolutionSpec.validate_document(document)
        assert any("blocking.window" in error for error in errors)

    def test_window_two_is_the_smallest_legal(self, document):
        document["blocking"] = {
            "backend": "sorted-neighborhood",
            "window": 2,
        }
        assert ResolutionSpec.from_dict(document).window == 2

    def test_unknown_policy_and_mode(self, document):
        document["resolution"] = {"policy": "coin-flip"}
        document["execution"] = {"mode": "psychic"}
        errors = ResolutionSpec.validate_document(document)
        assert any("coin-flip" in error for error in errors)
        assert any("psychic" in error for error in errors)

    @pytest.mark.parametrize(
        "execution",
        [
            {"workers": 0},
            {"workers": 4},
            {"workers": True},
            {"factorised": False},
            {"factorised": 1},
        ],
        ids=["workers-0", "workers-4", "workers-true", "factorised-false",
             "factorised-1"],
    )
    def test_retired_keys_reject_other_values(self, document, execution):
        """Only the old no-op value parses; anything else says to delete."""
        document["execution"] = execution
        (key,) = execution
        errors = ResolutionSpec.validate_document(document)
        assert errors == [
            f"execution.{key}: removed — the chase always runs "
            f"{'serially' if key == 'workers' else 'factorised'}; "
            "delete this key"
        ]

    def test_all_errors_reported_at_once(self, document):
        document["version"] = 2
        document["blocking"] = {"backend": "bogus"}
        document["resolution"] = {"policy": "coin-flip"}
        document["rules"]["mds"] = ["not an md"]
        errors = ResolutionSpec.validate_document(document)
        assert len(errors) >= 4

    def test_bad_md_reports_line_position(self, document):
        document["rules"]["mds"] = list(document["rules"]["mds"]) + ["junk"]
        errors = ResolutionSpec.validate_document(document)
        assert any("rules.mds[3]" in error for error in errors)

    def test_unknown_sections_rejected(self, document):
        document["blcking"] = {"backend": "hash"}
        with pytest.raises(SpecError, match="blcking"):
            ResolutionSpec.from_dict(document)

    def test_rules_require_mds_or_rcks(self, document):
        document["rules"] = {"mds": []}
        with pytest.raises(SpecError, match="at least one MD"):
            ResolutionSpec.from_dict(document)

    def test_bad_key_pairs_rejected(self, document):
        document["blocking"] = {
            "backend": "hash",
            "key_pairs": [["FN", "nope"]],
        }
        with pytest.raises(SpecError, match="key_pairs"):
            ResolutionSpec.from_dict(document)

    def test_not_a_dict(self):
        errors = ResolutionSpec.validate_document([1, 2, 3])
        assert errors and "object" in errors[0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            ResolutionSpec.from_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            ResolutionSpec.from_file(path)


class TestBuilder:
    def test_builder_matches_hand_written_document(self, pair, target):
        sigma = paper_mds(pair)
        built = (
            SpecBuilder()
            .pair(pair)
            .target(target)
            .mds(sigma)
            .blocking("hash", key_length=2)
            .resolution("first-non-null")
            .execution(mode="direct", top_k=3, cache=False)
            .build()
        )
        assert built.blocking_backend == "hash"
        assert built.key_length == 2
        assert built.policy == "first-non-null"
        assert built.mode == "direct"
        assert built.top_k == 3
        assert built.cache is False
        # And the round trip still holds for builder output.
        assert ResolutionSpec.from_dict(built.to_dict()) == built

    def test_builder_validates(self, pair, target):
        with pytest.raises(SpecError):
            SpecBuilder().pair(pair).target(target).mds(["junk"]).build()

    def test_builder_workspace_shortcut(self, pair, target):
        workspace = (
            SpecBuilder()
            .pair(pair)
            .target(target)
            .mds(paper_mds(pair))
            .workspace()
        )
        assert isinstance(workspace, Workspace)
        assert workspace.deduce()


class TestPersistenceSection:
    def test_defaults_to_memory(self, document):
        spec = ResolutionSpec.from_dict(document)
        assert spec.persistence_backend == "memory"
        assert spec.persistence_path is None

    def test_round_trips(self, document):
        document["persistence"] = {"backend": "sqlite", "path": "store.db"}
        spec = ResolutionSpec.from_dict(document)
        assert spec.persistence_backend == "sqlite"
        assert spec.persistence_path == "store.db"
        canonical = spec.to_dict()
        assert canonical["persistence"] == {
            "backend": "sqlite", "path": "store.db",
        }
        assert ResolutionSpec.from_dict(canonical) == spec

    def test_unknown_backend_is_actionable(self, document):
        document["persistence"] = {"backend": "postgres"}
        with pytest.raises(SpecError) as excinfo:
            ResolutionSpec.from_dict(document)
        message = str(excinfo.value)
        assert "persistence.backend" in message
        assert "sqlite" in message

    def test_unknown_key_rejected(self, document):
        document["persistence"] = {"backend": "memory", "wal": True}
        with pytest.raises(SpecError, match="unknown key"):
            ResolutionSpec.from_dict(document)

    def test_sqlite_requires_a_path(self, document):
        document["persistence"] = {"backend": "sqlite"}
        with pytest.raises(SpecError, match="persistence.path"):
            ResolutionSpec.from_dict(document)

    def test_never_enters_the_fingerprint(self, document):
        """Where the state lives never changes what the state is, so a
        store built under one backend must restore under the other."""
        base = ResolutionSpec.from_dict(document).fingerprint()
        document["persistence"] = {"backend": "sqlite", "path": "x.db"}
        assert ResolutionSpec.from_dict(document).fingerprint() == base

    def test_builder_sets_section(self, pair, target, sigma):
        spec = (
            SpecBuilder()
            .pair(pair)
            .target(target)
            .mds(sigma)
            .persistence("sqlite", "store.db")
            .build()
        )
        assert spec.persistence_backend == "sqlite"
        assert spec.persistence_path == "store.db"
