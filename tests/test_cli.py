"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.cli import CliError, load_md_file, load_schema_spec, main
from repro.datagen.generator import figure1_instances
from repro.relations.csvio import save_relation


@pytest.fixture
def schema_file(tmp_path):
    spec = {
        "left": {
            "name": "credit",
            "attributes": ["c#", "SSN", "FN", "LN", "addr", "tel", "email",
                           "gender", "type"],
        },
        "right": {
            "name": "billing",
            "attributes": ["c#", "FN", "LN", "post", "phn", "email",
                           "gender", "item", "price"],
        },
        "target": {
            "left": ["FN", "LN", "addr", "tel", "gender"],
            "right": ["FN", "LN", "post", "phn", "gender"],
        },
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture
def md_file(tmp_path):
    path = tmp_path / "mds.txt"
    path.write_text(
        "# Example 2.1\n"
        "credit[LN] = billing[LN] & credit[addr] = billing[post] & "
        "credit[FN] ~dl(0.8) billing[FN] -> "
        "credit[FN] <=> billing[FN] & credit[LN] <=> billing[LN] & "
        "credit[addr] <=> billing[post] & credit[tel] <=> billing[phn] & "
        "credit[gender] <=> billing[gender]\n"
        "credit[tel] = billing[phn] -> credit[addr] <=> billing[post]\n"
        "credit[email] = billing[email] -> "
        "credit[FN] <=> billing[FN] & credit[LN] <=> billing[LN]\n"
    )
    return path


class TestSpecLoading:
    def test_load_schema_spec(self, schema_file):
        pair, target = load_schema_spec(schema_file)
        assert pair.left.name == "credit"
        assert len(target) == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError, match="not found"):
            load_schema_spec(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CliError, match="invalid JSON"):
            load_schema_spec(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"left": {"name": "a", "attributes": ["x"]}}))
        with pytest.raises(CliError, match="right"):
            load_schema_spec(path)

    def test_load_md_file(self, schema_file, md_file):
        pair, _ = load_schema_spec(schema_file)
        assert len(load_md_file(md_file, pair)) == 3

    def test_md_parse_error_reported(self, schema_file, tmp_path):
        pair, _ = load_schema_spec(schema_file)
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage -> nonsense\n")
        with pytest.raises(CliError, match="cannot parse"):
            load_md_file(bad, pair)


class TestDeduce:
    def test_deduce_prints_keys(self, schema_file, md_file, capsys):
        code = main(
            ["deduce", "--schema", str(schema_file), "--mds", str(md_file),
             "-m", "6"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "RCK(s) relative to" in output
        assert "email" in output  # rck3/rck4 mention email

    def test_deduce_missing_schema(self, md_file, capsys):
        code = main(["deduce", "--schema", "/nope.json", "--mds", str(md_file)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCheck:
    def test_deducible_md_exit_zero(self, schema_file, md_file, capsys):
        code = main(
            ["check", "--schema", str(schema_file), "--mds", str(md_file),
             "credit[email] = billing[email] & credit[tel] = billing[phn] -> "
             "credit[gender] <=> billing[gender]"]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_non_deducible_md_exit_one(self, schema_file, md_file, capsys):
        code = main(
            ["check", "--schema", str(schema_file), "--mds", str(md_file),
             "credit[email] = billing[email] -> credit[addr] <=> billing[post]"]
        )
        assert code == 1
        assert "False" in capsys.readouterr().out

    def test_bad_md_syntax(self, schema_file, md_file, capsys):
        code = main(
            ["check", "--schema", str(schema_file), "--mds", str(md_file),
             "garbage"]
        )
        assert code == 2

    def test_explain_prints_derivation(self, schema_file, md_file, capsys):
        code = main(
            ["check", "--schema", str(schema_file), "--mds", str(md_file),
             "--explain",
             "credit[email] = billing[email] & credit[tel] = billing[phn] -> "
             "credit[gender] <=> billing[gender]"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Derivation:" in output
        assert "[by MD:" in output

    def test_explain_failure_report(self, schema_file, md_file, capsys):
        code = main(
            ["check", "--schema", str(schema_file), "--mds", str(md_file),
             "--explain",
             "credit[email] = billing[email] -> credit[addr] <=> billing[post]"]
        )
        assert code == 1
        assert "No derivation" in capsys.readouterr().out


class TestMatch:
    def test_match_fig1(self, schema_file, md_file, tmp_path, capsys):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        out_path = tmp_path / "matches.csv"
        code = main(
            ["match", "--schema", str(schema_file), "--mds", str(md_file),
             "--left", str(left_path), "--right", str(right_path),
             "-o", str(out_path), "--window", "10"]
        )
        assert code == 0
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        matched = {(int(r["left_tid"]), int(r["right_tid"])) for r in rows}
        # Windowed candidates catch t1 with several billing tuples.
        assert matched
        assert all(left == 0 for left, _ in matched)  # only t1 matches

    def test_match_workers_flag_is_removed(self, capsys):
        """The chase always runs serially; --workers is an unknown flag."""
        with pytest.raises(SystemExit) as excinfo:
            main(["match", "--spec", "spec.json", "--left", "a.csv",
                  "--right", "b.csv", "--workers", "4"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_match_plain_csv_without_tids(self, schema_file, md_file, tmp_path):
        left_path = tmp_path / "credit.csv"
        left_path.write_text(
            "FN,LN,addr,tel,email,gender\n"
            "Mark,Clifford,10 Oak Street,908-1111111,mc@gm.com,M\n"
        )
        right_path = tmp_path / "billing.csv"
        right_path.write_text(
            "FN,LN,post,phn,email,gender\n"
            "Marx,Clifford,10 Oak Street,908-1111111,mc@gm.com,M\n"
        )
        code = main(
            ["match", "--schema", str(schema_file), "--mds", str(md_file),
             "--left", str(left_path), "--right", str(right_path)]
        )
        assert code == 0

    def test_match_unknown_column_rejected(self, schema_file, md_file, tmp_path, capsys):
        left_path = tmp_path / "credit.csv"
        left_path.write_text("WRONG\nx\n")
        right_path = tmp_path / "billing.csv"
        right_path.write_text("FN\nMarx\n")
        code = main(
            ["match", "--schema", str(schema_file), "--mds", str(md_file),
             "--left", str(left_path), "--right", str(right_path)]
        )
        assert code == 2
        assert "WRONG" in capsys.readouterr().err


class TestPlanExplain:
    def test_explain_prints_compiled_plan(self, schema_file, md_file, capsys):
        code = main(
            ["plan", "explain", "--schema", str(schema_file),
             "--mds", str(md_file)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "EnforcementPlan over (credit, billing)" in output
        assert "unique predicate(s)" in output
        assert "exact equality" in output
        assert "DamerauLevenshtein >= 0.8" in output
        assert "sorted-neighborhood(window=10" in output

    def test_explain_hash_backend(self, schema_file, md_file, capsys):
        code = main(
            ["plan", "explain", "--schema", str(schema_file),
             "--mds", str(md_file), "--backend", "hash"]
        )
        assert code == 0
        assert "hash(" in capsys.readouterr().out

    def test_explain_json(self, schema_file, md_file, capsys):
        code = main(
            ["plan", "explain", "--schema", str(schema_file),
             "--mds", str(md_file), "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["unique_predicates"] < document["atoms_before_dedup"]
        assert len(document["rules"]) == 3
        assert document["keys"]

    def test_explain_missing_schema(self, md_file, capsys):
        code = main(
            ["plan", "explain", "--schema", "/nope.json",
             "--mds", str(md_file)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "Deduced RCKs" in output
        assert "(0, 3)" in output  # t1 ~ t6


class TestEngine:
    @pytest.fixture
    def fig1_csvs(self, tmp_path):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        return left_path, right_path

    def test_ingest_creates_store(self, schema_file, md_file, fig1_csvs,
                                  tmp_path, capsys):
        left_path, right_path = fig1_csvs
        store_path = tmp_path / "store.json"
        code = main(
            ["engine", "ingest", "--schema", str(schema_file),
             "--mds", str(md_file), "--store", str(store_path),
             "--left", str(left_path), "--right", str(right_path)]
        )
        assert code == 0
        assert store_path.exists()
        output = capsys.readouterr().out
        assert "ingested 6 record(s)" in output

    def test_ingest_resumes_existing_store(self, schema_file, md_file,
                                           fig1_csvs, tmp_path, capsys):
        left_path, right_path = fig1_csvs
        store_path = tmp_path / "store.json"
        assert main(
            ["engine", "ingest", "--schema", str(schema_file),
             "--mds", str(md_file), "--store", str(store_path),
             "--left", str(left_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["engine", "ingest", "--schema", str(schema_file),
             "--mds", str(md_file), "--store", str(store_path),
             "--right", str(right_path), "--json"]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["left_rows"] == 2
        assert stats["right_rows"] == 4
        assert stats["matched_clusters"] == 1
        assert stats["new_merges"] > 0

    def test_stats_and_query(self, schema_file, md_file, fig1_csvs,
                             tmp_path, capsys):
        left_path, right_path = fig1_csvs
        store_path = tmp_path / "store.json"
        assert main(
            ["engine", "ingest", "--schema", str(schema_file),
             "--mds", str(md_file), "--store", str(store_path),
             "--left", str(left_path), "--right", str(right_path)]
        ) == 0
        capsys.readouterr()
        assert main(["engine", "stats", "--store", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "left_rows: 2" in output
        assert "matched_clusters: 1" in output

        assert main(
            ["engine", "query", "--store", str(store_path),
             "--side", "left", "--tid", "0", "--json"]
        ) == 0
        cluster = json.loads(capsys.readouterr().out)
        assert cluster["left_tids"] == [0]
        assert cluster["right_tids"] == [0, 1, 2, 3]

    def test_query_unknown_tid(self, schema_file, md_file, fig1_csvs,
                               tmp_path, capsys):
        left_path, _ = fig1_csvs
        store_path = tmp_path / "store.json"
        assert main(
            ["engine", "ingest", "--schema", str(schema_file),
             "--mds", str(md_file), "--store", str(store_path),
             "--left", str(left_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["engine", "query", "--store", str(store_path),
             "--side", "right", "--tid", "99"]
        )
        assert code == 2
        assert "no right record" in capsys.readouterr().err

    def test_stats_missing_store(self, tmp_path, capsys):
        code = main(["engine", "stats", "--store", str(tmp_path / "no.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestEngineStreamGuard:
    """A store that cannot stream the spec's blocking backend exits 2.

    Sorted-neighborhood specs used to stream under hash semantics
    silently; the stream now refuses any store whose live blocking
    structures disagree with the declared ``blocking.backend``.
    """

    @pytest.fixture
    def sn_spec_file(self, schema_file, md_file, tmp_path):
        schema = json.loads(schema_file.read_text())
        document = {
            "version": 1,
            "schema": {"left": schema["left"], "right": schema["right"]},
            "target": schema["target"],
            "rules": {
                "mds": [
                    line.strip()
                    for line in md_file.read_text().splitlines()
                    if line.strip() and not line.strip().startswith("#")
                ],
                "top_k": 5,
            },
            "blocking": {"backend": "sorted-neighborhood", "window": 10},
            "execution": {"mode": "enforce"},
        }
        path = tmp_path / "sn-spec.json"
        path.write_text(json.dumps(document))
        return path

    def test_legacy_hash_snapshot_under_sn_spec_exits_two(
        self, sn_spec_file, tmp_path, capsys
    ):
        from repro.datagen.generator import figure1_instances as fig1

        _, credit, billing = fig1()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        store_path = tmp_path / "store.json"
        assert main(
            ["engine", "ingest", "--spec", str(sn_spec_file),
             "--store", str(store_path), "--left", str(left_path)]
        ) == 0
        capsys.readouterr()

        # Resuming the matching SN store streams fine.
        assert main(
            ["engine", "ingest", "--spec", str(sn_spec_file),
             "--store", str(store_path), "--right", str(right_path)]
        ) == 0
        capsys.readouterr()

        # A snapshot from the era before the blocking section existed
        # restores as a hash-blocked store: same fingerprint, different
        # streaming semantics — refused, not silently substituted.
        snapshot = json.loads(store_path.read_text())
        del snapshot["blocking"]
        store_path.write_text(json.dumps(snapshot))
        code = main(
            ["engine", "ingest", "--spec", str(sn_spec_file),
             "--store", str(store_path), "--right", str(right_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "streams under 'hash'" in err
        assert "re-bootstrap" in err


# ----------------------------------------------------------------------
# The spec-driven surface (PR 3): --spec, spec validate, deprecations
# ----------------------------------------------------------------------


@pytest.fixture
def spec_file(schema_file, md_file, tmp_path):
    """A ResolutionSpec equivalent to the legacy schema+MD fixtures."""
    schema = json.loads(schema_file.read_text())
    document = {
        "version": 1,
        "schema": {"left": schema["left"], "right": schema["right"]},
        "target": schema["target"],
        "rules": {
            "mds": [
                line.strip()
                for line in md_file.read_text().splitlines()
                if line.strip() and not line.strip().startswith("#")
            ],
            "top_k": 5,
        },
        "execution": {"mode": "direct"},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    return path


class TestSpecValidate:
    def test_valid_spec_exits_zero(self, spec_file, capsys):
        assert main(["spec", "validate", str(spec_file)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_invalid_spec_reports_all_errors_and_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "version": 9,
            "schema": {"left": {"name": "a", "attributes": ["x"]}},
            "rules": {"mds": ["garbage"]},
            "blocking": {"backend": "bogus"},
            "resolution": {"policy": "coin-flip"},
        }))
        assert main(["spec", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        # Several independent problems, all reported in one run.
        assert "unsupported spec version 9" in err
        assert "bogus" in err
        assert "coin-flip" in err
        assert "error(s)" in err

    def test_missing_spec_file_exits_two(self, tmp_path, capsys):
        assert main(["spec", "validate", str(tmp_path / "no.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["spec", "validate", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestSpecDrivenCommands:
    def test_match_spec_equals_flag_form(self, schema_file, md_file, spec_file,
                                         tmp_path, capsys):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)

        assert main(
            ["match", "--spec", str(spec_file),
             "--left", str(left_path), "--right", str(right_path)]
        ) == 0
        spec_out = capsys.readouterr().out
        with pytest.warns(DeprecationWarning, match="deprecated"):
            assert main(
                ["match", "--schema", str(schema_file), "--mds", str(md_file),
                 "--left", str(left_path), "--right", str(right_path)]
            ) == 0
        flag_out = capsys.readouterr().out
        assert spec_out == flag_out

    def test_deduce_with_spec(self, spec_file, capsys):
        assert main(["deduce", "--spec", str(spec_file)]) == 0
        assert "RCK(s) relative to" in capsys.readouterr().out

    def test_plan_explain_with_spec(self, spec_file, capsys):
        assert main(["plan", "explain", "--spec", str(spec_file)]) == 0
        output = capsys.readouterr().out
        assert "Workspace: ResolutionSpec v1" in output
        assert "EnforcementPlan over (credit, billing)" in output

    def test_check_with_spec(self, spec_file, capsys):
        code = main(
            ["check", "--spec", str(spec_file),
             "credit[email] = billing[email] & credit[tel] = billing[phn] -> "
             "credit[gender] <=> billing[gender]"]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_invalid_spec_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"version": 1}))
        assert main(["deduce", "--spec", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spec_conflicts_with_schema_flags(self, spec_file, schema_file, capsys):
        code = main(
            ["deduce", "--spec", str(spec_file), "--schema", str(schema_file)]
        )
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_tuning_flag_overrides_spec(self, spec_file, capsys):
        assert main(["deduce", "--spec", str(spec_file), "-m", "1"]) == 0
        assert "# 1 RCK(s)" in capsys.readouterr().out

    def test_json_with_output_writes_both(self, spec_file, tmp_path, capsys):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        out_path = tmp_path / "matches.csv"
        assert main(
            ["match", "--spec", str(spec_file),
             "--left", str(left_path), "--right", str(right_path),
             "-o", str(out_path), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        with out_path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(report["matches"])

    def test_neither_spec_nor_flags_exits_two(self, capsys):
        assert main(["deduce"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_flag_form_warns_deprecation(self, schema_file, md_file, capsys):
        with pytest.warns(DeprecationWarning, match="--schema/--mds"):
            assert main(
                ["deduce", "--schema", str(schema_file), "--mds", str(md_file)]
            ) == 0


class TestEngineSpecFingerprint:
    def test_ingest_rejects_store_from_other_spec(self, spec_file, tmp_path, capsys):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        save_relation(credit, left_path)
        store_path = tmp_path / "store.json"
        assert main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--left", str(left_path)]
        ) == 0
        capsys.readouterr()

        # A materially different spec (other top_k) must be rejected.
        document = json.loads(spec_file.read_text())
        document["rules"]["top_k"] = 2
        other = tmp_path / "other.json"
        other.write_text(json.dumps(document))
        code = main(
            ["engine", "ingest", "--spec", str(other),
             "--store", str(store_path), "--left", str(left_path)]
        )
        assert code == 2
        assert "built from spec" in capsys.readouterr().err

    def test_ingest_resumes_under_same_spec(self, spec_file, tmp_path, capsys):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        store_path = tmp_path / "store.json"
        assert main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--left", str(left_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--right", str(right_path), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["left_rows"] == 2
        assert stats["right_rows"] == 4
        assert stats["matched_clusters"] == 1
        assert stats["spec_fingerprint"]


# ----------------------------------------------------------------------
# The durable SQLite backend: routing, migration, and error surfaces
# ----------------------------------------------------------------------


class TestEngineSQLite:
    @pytest.fixture
    def fig1_csvs(self, tmp_path):
        _, credit, billing = figure1_instances()
        left_path = tmp_path / "credit.csv"
        right_path = tmp_path / "billing.csv"
        save_relation(credit, left_path)
        save_relation(billing, right_path)
        return left_path, right_path

    def _ingest(self, spec_file, fig1_csvs, store_path, extra=()):
        left_path, right_path = fig1_csvs
        return main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--left", str(left_path),
             "--right", str(right_path), *extra]
        )

    def test_db_suffix_creates_sqlite_store(self, spec_file, fig1_csvs,
                                            tmp_path, capsys):
        from repro.engine import is_sqlite_file

        store_path = tmp_path / "store.db"
        assert self._ingest(spec_file, fig1_csvs, store_path) == 0
        assert is_sqlite_file(store_path)
        capsys.readouterr()
        assert main(["engine", "stats", "--store", str(store_path),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["backend"] == "sqlite"
        assert stats["disk_bytes"] > 0
        assert stats["left_rows"] == 2
        assert stats["matched_clusters"] == 1

    def test_spec_persistence_section_routes_to_sqlite(
            self, spec_file, fig1_csvs, tmp_path, capsys):
        from repro.engine import is_sqlite_file

        document = json.loads(spec_file.read_text())
        # An extension-less path: only the spec says it is durable.
        store_path = tmp_path / "durable-store"
        document["persistence"] = {"backend": "sqlite",
                                   "path": str(store_path)}
        spec_path = tmp_path / "durable.json"
        spec_path.write_text(json.dumps(document))
        assert self._ingest(spec_path, fig1_csvs, store_path) == 0
        assert is_sqlite_file(store_path)

    def test_sqlite_store_resumes_and_queries(self, spec_file, fig1_csvs,
                                              tmp_path, capsys):
        left_path, right_path = fig1_csvs
        store_path = tmp_path / "store.db"
        assert main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--left", str(left_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["engine", "ingest", "--spec", str(spec_file),
             "--store", str(store_path), "--right", str(right_path),
             "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["left_rows"] == 2
        assert stats["right_rows"] == 4
        assert stats["matched_clusters"] == 1
        assert main(
            ["engine", "query", "--store", str(store_path),
             "--side", "left", "--tid", "0"]
        ) == 0
        assert "cluster" in capsys.readouterr().out

    def test_stats_prints_backend_line(self, spec_file, fig1_csvs,
                                       tmp_path, capsys):
        store_path = tmp_path / "store.db"
        assert self._ingest(spec_file, fig1_csvs, store_path) == 0
        capsys.readouterr()
        assert main(["engine", "stats", "--store", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "backend: sqlite" in output
        assert "disk_bytes:" in output

    def test_json_store_stats_print_memory_backend(self, spec_file,
                                                   fig1_csvs, tmp_path,
                                                   capsys):
        store_path = tmp_path / "store.json"
        assert self._ingest(spec_file, fig1_csvs, store_path) == 0
        capsys.readouterr()
        assert main(["engine", "stats", "--store", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "backend: memory" in output
        assert "disk_bytes:" not in output

    def test_migrate_round_trip(self, spec_file, fig1_csvs, tmp_path,
                                capsys):
        json_path = tmp_path / "store.json"
        assert self._ingest(spec_file, fig1_csvs, json_path) == 0
        capsys.readouterr()
        db_path = tmp_path / "store.db"
        assert main(["engine", "migrate", str(json_path),
                     str(db_path)]) == 0
        assert "snapshot -> sqlite" in capsys.readouterr().out
        back_path = tmp_path / "back.json"
        assert main(["engine", "migrate", str(db_path), str(back_path),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["direction"] == "sqlite -> snapshot"
        original = json.loads(json_path.read_text())
        roundtripped = json.loads(back_path.read_text())
        assert roundtripped == original

    def test_migrated_store_keeps_fingerprint(self, spec_file, fig1_csvs,
                                              tmp_path, capsys):
        """A migrated store resumes under the same spec it was built from."""
        json_path = tmp_path / "store.json"
        assert self._ingest(spec_file, fig1_csvs, json_path) == 0
        db_path = tmp_path / "store.db"
        assert main(["engine", "migrate", str(json_path),
                     str(db_path)]) == 0
        capsys.readouterr()
        assert self._ingest(spec_file, fig1_csvs, db_path,
                            extra=["--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["backend"] == "sqlite"
        # Re-ingesting the same CSVs appends: the resume was accepted.
        assert stats["left_rows"] == 4

    def test_migrate_refuses_overwrite(self, spec_file, fig1_csvs,
                                       tmp_path, capsys):
        json_path = tmp_path / "store.json"
        assert self._ingest(spec_file, fig1_csvs, json_path) == 0
        existing = tmp_path / "exists.db"
        existing.write_text("precious")
        capsys.readouterr()
        code = main(["engine", "migrate", str(json_path), str(existing)])
        assert code == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert existing.read_text() == "precious"

    def test_migrate_missing_source_exits_two(self, tmp_path, capsys):
        code = main(["engine", "migrate", str(tmp_path / "no.json"),
                     str(tmp_path / "out.db")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_corrupt_store_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.db"
        bad.write_text("this is not a database")
        code = main(["engine", "stats", "--store", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot" in err

    def test_sqlite_store_from_other_spec_exits_two(
            self, spec_file, fig1_csvs, tmp_path, capsys):
        store_path = tmp_path / "store.db"
        assert self._ingest(spec_file, fig1_csvs, store_path) == 0
        document = json.loads(spec_file.read_text())
        document["resolution"] = {"policy": "lexicographic-min"}
        other = tmp_path / "other.json"
        other.write_text(json.dumps(document))
        capsys.readouterr()
        code = self._ingest(other, fig1_csvs, store_path)
        assert code == 2
        assert "built from spec" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_builds_server_from_spec_and_flags(self, spec_file,
                                                     monkeypatch):
        import repro.serve

        launched = {}
        monkeypatch.setattr(
            repro.serve, "serve_forever",
            lambda server: launched.setdefault("server", server),
        )
        code = main([
            "serve", "--spec", str(spec_file), "--host", "0.0.0.0",
            "--port", "0", "--max-batch", "4", "--max-delay-ms", "3",
            "--queue-limit", "7",
        ])
        assert code == 0
        server = launched["server"]
        assert (server.host, server.port) == ("0.0.0.0", 0)
        assert server.max_batch == 4
        assert server.max_delay_ms == 3
        assert server.queue_limit == 7
        # No flags -> the spec's serve section (here: its defaults).
        monkeypatch.setattr(
            repro.serve, "serve_forever",
            lambda server: launched.__setitem__("defaulted", server),
        )
        assert main(["serve", "--spec", str(spec_file)]) == 0
        defaulted = launched["defaulted"]
        assert (defaulted.host, defaulted.port) == ("127.0.0.1", 8080)
        assert defaulted.max_batch == 16

    def test_serve_missing_spec_exits_two(self, tmp_path, capsys):
        code = main(["serve", "--spec", str(tmp_path / "no.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err
