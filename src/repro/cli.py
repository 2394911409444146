"""Command-line interface: ``python -m repro <command>``.

Drives the full pipeline from plain files, so the library is usable
without writing Python.  Every pipeline command is **spec-driven**: pass
``--spec spec.json`` (a :class:`repro.api.ResolutionSpec` document) and
the command builds a :class:`repro.api.Workspace` from it.  The legacy
``--schema``/``--mds`` flag form still works — it is lowered into a spec
internally — but emits a ``DeprecationWarning``.

* ``spec``    — the spec itself: ``spec validate`` checks a document and
  reports **all** problems at once (exit 2 when invalid);
* ``deduce``  — print the spec's quality RCKs;
* ``check``   — decide Σ ⊨m φ for an MD given on the command line;
* ``match``   — match two CSV files (``--json`` prints the full
  :class:`~repro.api.workspace.MatchReport`);
* ``plan``    — ``plan explain`` prints the compiled ``EnforcementPlan``;
* ``demo``    — run the paper's Fig. 1 example end to end;
* ``engine``  — the incremental streaming engine: ``engine ingest``
  streams CSV records into a persistent match store — a JSON snapshot or
  a durable SQLite database (``.db``/``.sqlite`` paths or a spec
  ``persistence`` section select SQLite; stores embed the spec
  fingerprint and resuming under a different spec is rejected),
  ``engine stats`` reports counters, ``engine query`` prints a cluster,
  ``engine migrate`` converts between the two store formats;
* ``trace``   — inspect trace files written with ``--trace`` on ``match``
  or ``engine ingest``: ``trace summarize`` aggregates per-span timings,
  ``trace validate`` schema-checks a file (what CI smoke runs).

The legacy schema spec is JSON::

    {
      "left":   {"name": "credit",  "attributes": ["c#", "FN", ...]},
      "right":  {"name": "billing", "attributes": ["c#", "FN", ...]},
      "target": {"left": ["FN", "LN", ...], "right": ["FN", "LN", ...]}
    }

MD files contain one MD per line in the :mod:`repro.core.parser` syntax;
blank lines and ``#`` comments are ignored.

Exit codes: 0 on success, 1 for a negative ``check`` verdict, 2 for any
user-facing error (bad input, missing file, invalid spec) — every such
error is printed to stderr, never raised as a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sqlite3
import sys
import warnings
from pathlib import Path
from typing import List, Optional, Tuple

from repro.api import ResolutionSpec, SpecBuilder, SpecError, Workspace
from repro.obs import TRACE_FORMATS, read_trace, summarize_trace, validate_trace
from repro.core.closure import deduces
from repro.core.parser import parse_md, parse_mds
from repro.core.schema import ComparableLists, RelationSchema, SchemaPair
from repro.relations.csvio import load_relation
from repro.relations.relation import Relation


class CliError(Exception):
    """A user-facing CLI failure (bad input, missing file, ...)."""


def load_schema_spec(path: Path) -> Tuple[SchemaPair, ComparableLists]:
    """Parse the legacy JSON schema spec into a pair and target lists."""
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"schema spec not found: {path}") from None
    except json.JSONDecodeError as error:
        raise CliError(f"invalid JSON in {path}: {error}") from None
    for key in ("left", "right", "target"):
        if key not in spec:
            raise CliError(f"schema spec is missing the {key!r} section")
    try:
        pair = SchemaPair(
            RelationSchema(spec["left"]["name"], spec["left"]["attributes"]),
            RelationSchema(spec["right"]["name"], spec["right"]["attributes"]),
        )
        target = ComparableLists(
            pair, spec["target"]["left"], spec["target"]["right"]
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CliError(f"invalid schema spec: {error}") from None
    return pair, target


def load_md_file(path: Path, pair: SchemaPair):
    """Parse the MD file against the schema pair."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"MD file not found: {path}") from None
    try:
        return parse_mds(text, pair)
    except ValueError as error:
        raise CliError(f"cannot parse {path}: {error}") from None


def _load_csv_relation(schema, path: Path) -> Relation:
    """Load a CSV with or without the __tid__ column."""
    try:
        with path.open("r", newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), None)
    except FileNotFoundError:
        raise CliError(f"data file not found: {path}") from None
    if header and header[0] == "__tid__":
        return load_relation(schema, path)
    # Plain CSV: columns must cover a subset of the schema.
    relation = Relation(schema)
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        unknown = set(reader.fieldnames or ()) - set(schema.attribute_names)
        if unknown:
            raise CliError(
                f"{path}: columns {sorted(unknown)} not in schema "
                f"{schema.name!r}"
            )
        for record in reader:
            relation.insert(
                {key: (value if value != "" else None) for key, value in record.items()}
            )
    return relation


# ----------------------------------------------------------------------
# Spec resolution: --spec, or legacy flags lowered into a spec
# ----------------------------------------------------------------------


def _spec_from_file(path: Path) -> ResolutionSpec:
    """Read a ResolutionSpec, folding all its errors into one CliError."""
    try:
        return ResolutionSpec.from_file(path)
    except SpecError as error:
        raise CliError("\n".join(error.errors)) from None


def _legacy_spec(
    args,
    mode: str,
    top_k: int,
    window: int = 10,
    backend: str = "sorted-neighborhood",
) -> ResolutionSpec:
    """Lower the deprecated --schema/--mds flag form into a spec."""
    pair, target = load_schema_spec(Path(args.schema))
    sigma = load_md_file(Path(args.mds), pair)
    warnings.warn(
        "the --schema/--mds flag form is deprecated; write a "
        "ResolutionSpec document and pass --spec spec.json "
        "(see `repro spec validate`)",
        DeprecationWarning,
        stacklevel=2,
    )
    try:
        return (
            SpecBuilder()
            .pair(pair)
            .target(target)
            .mds(sigma)
            .blocking(backend, window=window)
            .execution(mode=mode, top_k=top_k)
            .build()
        )
    except SpecError as error:
        raise CliError(
            "cannot lower the given flags into a spec:\n"
            + "\n".join(error.errors)
        ) from None


def _override_spec(spec: ResolutionSpec, **overrides) -> ResolutionSpec:
    """Rebuild a spec with explicitly passed tuning flags applied.

    ``overrides`` maps dotted document paths (e.g. ``"rules.top_k"``) to
    values; ``None`` values (flag not given) are skipped, so a plain
    ``--spec`` run uses the file verbatim.
    """
    effective = {
        path: value for path, value in overrides.items() if value is not None
    }
    if not effective:
        return spec
    document = spec.to_dict()
    for path, value in effective.items():
        section, _, key = path.partition(".")
        document[section][key] = value
    return ResolutionSpec.from_dict(document)


def _resolve_spec(
    args,
    mode: str,
    top_k: Optional[int] = None,
    window: Optional[int] = None,
    backend: Optional[str] = None,
    default_top_k: int = 5,
) -> ResolutionSpec:
    """The command's spec: --spec when given, lowered flags otherwise.

    With ``--spec``, explicitly passed tuning flags (``--top-k``,
    ``--window``, ``--backend``, ``-m``) override the corresponding spec
    fields — a flag the user typed is never silently ignored — and
    combining ``--spec`` with ``--schema``/``--mds`` is an error.
    """
    spec_path = getattr(args, "spec", None)
    if spec_path:
        if getattr(args, "schema", None) or getattr(args, "mds", None):
            raise CliError(
                "--spec conflicts with --schema/--mds; pass one form only"
            )
        spec = _spec_from_file(Path(spec_path))
        try:
            return _override_spec(
                spec,
                **{
                    "rules.top_k": top_k,
                    "blocking.window": window,
                    "blocking.backend": backend,
                },
            )
        except SpecError as error:
            raise CliError("\n".join(error.errors)) from None
    if not getattr(args, "schema", None) or not getattr(args, "mds", None):
        raise CliError(
            "pass --spec spec.json, or both --schema and --mds"
        )
    return _legacy_spec(
        args,
        mode,
        top_k if top_k is not None else default_top_k,
        window if window is not None else 10,
        backend if backend is not None else "sorted-neighborhood",
    )


def _trace_spec(spec: ResolutionSpec, args) -> ResolutionSpec:
    """Lower --trace/--trace-format into the spec's observability section."""
    if getattr(args, "trace", None) is None and (
        getattr(args, "trace_format", None) is None
    ):
        return spec
    try:
        return _override_spec(
            spec,
            **{
                "observability.trace": getattr(args, "trace", None),
                "observability.trace_format": getattr(args, "trace_format", None),
            },
        )
    except SpecError as error:
        raise CliError("\n".join(error.errors)) from None


def _write_cli_trace(workspace: Workspace, args, **manifest_fields) -> None:
    """Write the run's trace to the spec's observability.trace path."""
    if workspace.spec.trace_path is None:
        return
    try:
        workspace.write_trace(
            argv=getattr(args, "argv", sys.argv[1:]), **manifest_fields
        )
    except OSError as error:
        raise CliError(f"cannot write trace: {error}") from None


def _workspace(spec: ResolutionSpec) -> Workspace:
    """A workspace whose compile errors surface as CLI errors."""
    workspace = Workspace(spec)
    try:
        workspace.plan
    except (KeyError, ValueError) as error:
        raise CliError(f"cannot compile the spec: {error}") from None
    return workspace


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_spec_validate(args) -> int:
    path = Path(args.file)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"spec file not found: {path}") from None
    except json.JSONDecodeError as error:
        raise CliError(f"invalid JSON in {path}: {error}") from None
    errors = ResolutionSpec.validate_document(document)
    if errors:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        print(f"# {len(errors)} error(s) in {path}", file=sys.stderr)
        return 2
    spec = ResolutionSpec.from_dict(document)
    print(
        f"OK: {path} is a valid v{spec.version} ResolutionSpec "
        f"(fingerprint {spec.fingerprint()})"
    )
    return 0


def cmd_deduce(args) -> int:
    spec = _resolve_spec(args, mode="direct", top_k=args.m, default_top_k=10)
    workspace = _workspace(spec)
    keys = workspace.deduce()
    print(f"# {len(keys)} RCK(s) relative to {workspace.plan.target}")
    for key in keys:
        print(key)
    return 0


def cmd_check(args) -> int:
    spec = _resolve_spec(args, mode="enforce")
    pair = spec.schema_pair()
    try:
        sigma = spec.parsed_mds(pair)
    except ValueError as error:
        raise CliError(f"cannot parse the spec's MDs: {error}") from None
    try:
        phi = parse_md(args.md, pair)
    except ValueError as error:
        raise CliError(f"cannot parse the MD to check: {error}") from None
    if args.explain:
        from repro.core.explain import explain

        explanation = explain(pair, sigma, phi)
        print(explanation.render())
        return 0 if explanation.deduced else 1
    verdict = deduces(pair, sigma, phi)
    print(f"Sigma |=m phi: {verdict}")
    return 0 if verdict else 1


def cmd_match(args) -> int:
    spec = _resolve_spec(
        args, mode="direct", top_k=args.top_k, window=args.window
    )
    spec = _trace_spec(spec, args)
    workspace = _workspace(spec)
    plan = workspace.plan
    if not plan.keys:
        raise CliError("no RCKs deducible from the given MDs")
    left = _load_csv_relation(plan.pair.left, Path(args.left))
    right = _load_csv_relation(plan.pair.right, Path(args.right))
    try:
        report = workspace.match(left, right)
    except (KeyError, ValueError) as error:
        raise CliError(f"matching failed: {error}") from None
    _write_cli_trace(
        workspace, args,
        command="match", left=str(args.left), right=str(args.right),
    )
    exhausted = report.stats.get("rounds_exhausted", 0)
    if exhausted:
        print(
            f"warning: the chase hit its round budget "
            f"(execution.max_rounds={spec.max_rounds}) before reaching a "
            f"stable instance in {exhausted} enforcement(s); matches may be "
            f"incomplete — raise execution.max_rounds "
            f"(rules in play: {', '.join(r.name for r in plan.rules)})",
            file=sys.stderr,
        )
    rows = list(report.matches)
    if args.output:
        with Path(args.output).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["left_tid", "right_tid"])
            writer.writerows(rows)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
        return 0
    if not args.output:
        for left_tid, right_tid in rows:
            print(f"{left_tid},{right_tid}")
    print(
        f"# {len(rows)} match(es) from {len(report.candidates)} candidate "
        f"pair(s); keys used: {len(plan.keys)}",
        file=sys.stderr,
    )
    return 0


def _factorisation_stats(plan, left_path: Path, right_path: Path):
    """Factorise the blocking output of two CSVs: the dedup the kernel gets.

    ``blocks`` counts the connected components of the candidate pairs
    (sets of pairs that chase independently of each other);
    ``value_pair_groups`` the distinct LHS value-pair signatures (the
    units the chase evaluates rules on); ``dedup_ratio`` is pairs per
    group.
    """
    from repro.core.semantics import InstancePair
    from repro.plan.factorise import PairGroupIndex
    from repro.plan.shard import shard_pairs

    left = _load_csv_relation(plan.pair.left, left_path)
    right = _load_csv_relation(plan.pair.right, right_path)
    pairs = plan.candidates(left, right)
    index = PairGroupIndex(plan, InstancePair(plan.pair, left, right), pairs)
    return {
        "candidate_pairs": len(pairs),
        "blocks": len(shard_pairs(pairs)),
        "value_pair_groups": index.group_count,
        "dedup_ratio": round(index.ratio, 4),
    }


def cmd_plan_explain(args) -> int:
    spec = _resolve_spec(
        args,
        mode="enforce",
        top_k=args.top_k,
        window=args.window,
        backend=args.backend,
    )
    workspace = _workspace(spec)
    if not workspace.plan.keys:
        raise CliError("no RCKs deducible from the given MDs")
    if bool(args.left) != bool(args.right):
        raise CliError(
            "plan explain takes --left and --right together (or neither)"
        )
    factorisation = None
    if args.left and args.right:
        factorisation = _factorisation_stats(
            workspace.plan, Path(args.left), Path(args.right)
        )
    if args.json:
        document = workspace.plan.to_dict()
        document["spec_fingerprint"] = workspace.fingerprint
        if factorisation is not None:
            document["factorisation"] = factorisation
        print(json.dumps(document, sort_keys=True))
    else:
        print(workspace.explain())
        if factorisation is not None:
            print(
                f"factorisation: {factorisation['candidate_pairs']} "
                f"candidate pair(s) in {factorisation['blocks']} block(s) "
                f"-> {factorisation['value_pair_groups']} distinct-value "
                f"group(s) (dedup ratio {factorisation['dedup_ratio']}x)"
            )
    return 0


#: Path suffixes that select the SQLite backend for a *new* store file.
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


def _load_engine_store(path: Path):
    """Open an existing store of either backend, sniffing the format.

    SQLite files are recognized by their magic bytes, so a store keeps
    working however it is named; everything else is read as a JSON
    snapshot.  All failure modes (missing file, unreadable or corrupt
    content, wrong version) surface as actionable :class:`CliError`.
    """
    from repro.engine import SQLiteMatchStore, is_sqlite_file, load_store

    if not path.exists():
        raise CliError(f"store not found: {path}")
    if is_sqlite_file(path):
        try:
            return SQLiteMatchStore(path)
        except (ValueError, KeyError, TypeError, sqlite3.Error) as error:
            raise CliError(f"cannot open store {path}: {error}") from None
    try:
        return load_store(path)
    except (ValueError, KeyError, TypeError) as error:
        raise CliError(f"cannot read store {path}: {error}") from None


def _wants_sqlite(spec, store_path: Path) -> bool:
    """Whether a *new* store at ``store_path`` should be SQLite-backed.

    Either the spec asks for it (``persistence.backend``) or the path's
    suffix does (``.db``/``.sqlite``/``.sqlite3``).
    """
    return (
        spec.persistence_backend == "sqlite"
        or store_path.suffix.lower() in _SQLITE_SUFFIXES
    )


def cmd_engine_ingest(args) -> int:
    from repro.core.schema import LEFT, RIGHT
    from repro.engine import save_store

    spec = _resolve_spec(args, mode="enforce", top_k=args.top_k)
    spec = _trace_spec(spec, args)
    workspace = _workspace(spec)
    pair = workspace.plan.pair
    store_path = Path(args.store)
    store = None
    if store_path.exists():
        store = _load_engine_store(store_path)
    elif _wants_sqlite(spec, store_path):
        store = workspace.open_store(store_path)
    try:
        matcher = workspace.stream(store=store)
    except SpecError as error:
        raise CliError(f"{store_path}: {'; '.join(error.errors)}") from None
    except ValueError as error:
        # Covers e.g. a store snapshot built for a different schema/target.
        raise CliError(f"{store_path}: {error}") from None
    merges_before = matcher.store.merges
    ingested = 0
    truncated = 0
    for side, schema, data_path in (
        (LEFT, pair.left, args.left),
        (RIGHT, pair.right, args.right),
    ):
        if data_path is None:
            continue
        relation = _load_csv_relation(schema, Path(data_path))
        for row in relation:
            result = matcher.ingest(side, row.values())
            ingested += 1
            truncated += result.cascade_truncated
    if matcher.store.backend_name == "sqlite":
        # Every ingest already committed durably; just flush the tail.
        matcher.store.commit()
    else:
        save_store(matcher.store, store_path)
    _write_cli_trace(
        workspace,
        args,
        command="engine ingest",
        store=str(store_path),
        ingested=ingested,
    )
    if truncated:
        print(
            f"warning: the repair cascade hit its budget "
            f"(execution.max_cascade={spec.max_cascade}) on {truncated} "
            f"ingest(s); some repaired records' neighborhoods were not "
            f"re-examined, so clusters may be incomplete — raise "
            f"execution.max_cascade",
            file=sys.stderr,
        )
    stats = matcher.store.stats()
    stats["ingested"] = ingested
    stats["new_merges"] = matcher.store.merges - merges_before
    stats["spec_fingerprint"] = matcher.store.spec_fingerprint
    # Work counters of this run's compiled plan (cache state is
    # per-process; it is not persisted in the snapshot).
    stats["plan"] = matcher.plan.stats.as_dict()
    if args.json:
        print(json.dumps(stats, sort_keys=True))
    else:
        print(
            f"# ingested {ingested} record(s) into {store_path} "
            f"({stats['new_merges']} new merge(s))"
        )
        print(
            f"# store: {stats['left_rows']}+{stats['right_rows']} rows, "
            f"{stats['matched_clusters']} matched cluster(s), "
            f"{stats['comparisons']} comparison(s) so far"
        )
    return 0


def cmd_engine_stats(args) -> int:
    store = _load_engine_store(Path(args.store))
    stats = store.stats()
    if args.json:
        print(json.dumps(stats, sort_keys=True))
        return 0
    print(f"# store {args.store}")
    print(f"backend: {stats['backend']}")
    if "disk_bytes" in stats:
        print(f"disk_bytes: {stats['disk_bytes']}")
    for key in (
        "left_rows", "right_rows", "matched_clusters",
        "largest_cluster", "comparisons", "merges",
    ):
        print(f"{key}: {stats[key]}")
    for name, index_stats in stats["indexes"].items():
        print(
            f"index {name}: {index_stats['buckets']} bucket(s), "
            f"largest {index_stats['largest_bucket']}"
        )
    return 0


def cmd_engine_query(args) -> int:
    from repro.core.schema import LEFT, RIGHT

    store = _load_engine_store(Path(args.store))
    side = LEFT if args.side == "left" else RIGHT
    relation = store.relation(side)
    if args.tid not in relation:
        raise CliError(
            f"no {args.side} record with tid {args.tid} in {args.store}"
        )
    cluster = store.cluster_of(side, args.tid)
    if args.json:
        print(json.dumps({
            "side": args.side,
            "tid": args.tid,
            "left_tids": sorted(cluster.left_tids),
            "right_tids": sorted(cluster.right_tids),
        }, sort_keys=True))
        return 0
    print(
        f"# cluster of {args.side} tid {args.tid}: "
        f"{cluster.size} record(s)"
    )
    for member_side, name, tids in (
        (LEFT, store.pair.left.name, sorted(cluster.left_tids)),
        (RIGHT, store.pair.right.name, sorted(cluster.right_tids)),
    ):
        member_relation = store.relation(member_side)
        for tid in tids:
            values = member_relation[tid].values()
            rendered = ", ".join(
                f"{key}={value}" for key, value in values.items()
                if value is not None
            )
            print(f"{name}[{tid}]: {rendered}")
    return 0


def cmd_engine_migrate(args) -> int:
    """Convert a store file between the JSON snapshot and SQLite formats.

    The direction is inferred from the source's format: a SQLite store
    exports to a JSON snapshot, a JSON snapshot imports to a SQLite
    store.  The destination must not already exist.
    """
    from repro.engine import (
        is_sqlite_file,
        snapshot_to_sqlite,
        sqlite_to_snapshot,
    )

    source, destination = Path(args.source), Path(args.dest)
    if not source.exists():
        raise CliError(f"store not found: {source}")
    if destination.exists():
        raise CliError(
            f"refusing to overwrite existing file: {destination}"
        )
    to_sqlite = not is_sqlite_file(source)
    try:
        if to_sqlite:
            store = snapshot_to_sqlite(source, destination)
            stats = store.stats()
            store.close(commit=False)
        else:
            sqlite_to_snapshot(source, destination)
            stats = _load_engine_store(destination).stats()
    except (ValueError, KeyError, TypeError, sqlite3.Error) as error:
        raise CliError(f"cannot migrate {source}: {error}") from None
    direction = "snapshot -> sqlite" if to_sqlite else "sqlite -> snapshot"
    if args.json:
        print(json.dumps({
            "source": str(source),
            "dest": str(destination),
            "direction": direction,
            "stats": stats,
        }, sort_keys=True))
        return 0
    print(f"# migrated {source} -> {destination} ({direction})")
    print(
        f"# {stats['left_rows']}+{stats['right_rows']} rows, "
        f"{stats['matched_clusters']} matched cluster(s), "
        f"{stats['merges']} merge(s) carried over"
    )
    return 0


def _read_trace_file(path: str):
    try:
        return read_trace(path)
    except FileNotFoundError:
        raise CliError(f"trace file not found: {path}") from None
    except ValueError as error:
        raise CliError(str(error)) from None


def cmd_serve(args) -> int:
    """Run the asyncio resolution service until SIGINT/SIGTERM."""
    from repro.serve import ResolutionServer, serve_forever

    spec = _resolve_spec(args, mode="enforce")
    server = ResolutionServer(
        spec,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        queue_limit=args.queue_limit,
    )
    serve_forever(server)
    return 0


def cmd_trace_summarize(args) -> int:
    document = _read_trace_file(args.file)
    problems = validate_trace(document)
    if problems:
        raise CliError(
            f"{args.file} is not a valid trace:\n"
            + "\n".join(f"  {problem}" for problem in problems)
        )
    print(summarize_trace(document))
    return 0


def cmd_trace_validate(args) -> int:
    document = _read_trace_file(args.file)
    problems = validate_trace(document)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print(f"# {len(problems)} problem(s) in {args.file}", file=sys.stderr)
        return 2
    spans = sum(
        1
        for event in document.get("traceEvents", [])
        if isinstance(event, dict) and event.get("ph") == "X"
    )
    print(f"OK: {args.file} is a valid trace ({spans} span event(s))")
    return 0


def cmd_demo(args) -> int:
    from repro.datagen.generator import figure1_instances
    from repro.datagen.schemas import paper_mds, paper_target

    pair, credit, billing = figure1_instances()
    workspace = (
        Workspace.builder()
        .pair(pair)
        .target(paper_target(pair))
        .mds(paper_mds(pair))
        .execution(mode="direct", top_k=6)
        .workspace()
    )
    print("Deduced RCKs from the paper's MDs:")
    for key in workspace.deduce():
        print(f"  {key}")
    report = workspace.match(
        credit, billing,
        candidates=[(l, r) for l in range(2) for r in range(4)],
    )
    print("Matches on the Fig. 1 instances (credit tid, billing tid):")
    for pair_ in report.matches:
        print(f"  {pair_}")
    return 0


def _add_trace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        help="write a span trace of this run to FILE (Chrome trace_event "
        "JSON by default: load it in about:tracing or ui.perfetto.dev; "
        "inspect with `repro trace summarize FILE`)",
        metavar="FILE",
    )
    parser.add_argument(
        "--trace-format", choices=TRACE_FORMATS,
        help="trace file format (default chrome; jsonl = one event per line)",
    )


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec",
        help="ResolutionSpec JSON (the declarative form of every other flag)",
    )
    parser.add_argument(
        "--schema", help="legacy schema spec JSON (deprecated; use --spec)"
    )
    parser.add_argument(
        "--mds", help="legacy MD file, one per line (deprecated; use --spec)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matching dependencies and relative candidate keys "
        "(Fan et al., VLDB 2009).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = sub.add_parser(
        "spec", help="work with ResolutionSpec documents (repro.api)"
    )
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    validate = spec_sub.add_parser(
        "validate",
        help="validate a spec document, reporting every error at once",
    )
    validate.add_argument("file", help="ResolutionSpec JSON file")
    validate.set_defaults(func=cmd_spec_validate)

    deduce = sub.add_parser("deduce", help="deduce quality RCKs from MDs")
    _add_spec_options(deduce)
    deduce.add_argument("-m", type=int, help="max RCKs (default 10)")
    deduce.set_defaults(func=cmd_deduce)

    check = sub.add_parser("check", help="decide Sigma |=m phi")
    _add_spec_options(check)
    check.add_argument(
        "--explain", action="store_true",
        help="print the derivation (or failure report)",
    )
    check.add_argument("md", help="the MD phi, in the text syntax")
    check.set_defaults(func=cmd_check)

    match = sub.add_parser("match", help="match two CSV files with RCKs")
    _add_spec_options(match)
    match.add_argument("--left", required=True, help="left relation CSV")
    match.add_argument("--right", required=True, help="right relation CSV")
    match.add_argument("-o", "--output", help="write pairs CSV here")
    match.add_argument("--top-k", type=int, help="RCKs to use (default 5)")
    match.add_argument("--window", type=int, help="window size (default 10)")
    match.add_argument(
        "--json", action="store_true",
        help="print the full MatchReport as JSON (pairs, clusters, "
        "provenance, plan stats, spec fingerprint)",
    )
    _add_trace_options(match)
    match.set_defaults(func=cmd_match)

    plan = sub.add_parser(
        "plan", help="the compiled enforcement kernel (repro.plan)"
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)
    explain = plan_sub.add_parser(
        "explain",
        help="compile a spec (or MD file) and print the EnforcementPlan",
    )
    _add_spec_options(explain)
    explain.add_argument(
        "--left",
        help="left relation CSV: block and factorise it for dedup stats",
    )
    explain.add_argument(
        "--right", help="right relation CSV (required with --left)"
    )
    explain.add_argument("--top-k", type=int, help="RCKs to deduce (default 5)")
    explain.add_argument(
        "--backend", choices=("sorted-neighborhood", "hash"),
        help="blocking backend to attach (default sorted-neighborhood)",
    )
    explain.add_argument(
        "--window", type=int,
        help="window size (sorted-neighborhood backend; default 10)",
    )
    explain.add_argument(
        "--json", action="store_true", help="print the plan as JSON"
    )
    explain.set_defaults(func=cmd_plan_explain)

    demo = sub.add_parser("demo", help="run the Fig. 1 example")
    demo.set_defaults(func=cmd_demo)

    engine = sub.add_parser(
        "engine", help="incremental streaming entity-resolution engine"
    )
    engine_sub = engine.add_subparsers(dest="engine_command", required=True)

    ingest = engine_sub.add_parser(
        "ingest", help="stream CSV records into a persistent match store"
    )
    _add_spec_options(ingest)
    ingest.add_argument(
        "--store", required=True,
        help="store snapshot path (created when missing, updated in place)",
    )
    ingest.add_argument("--left", help="left relation CSV to ingest")
    ingest.add_argument("--right", help="right relation CSV to ingest")
    ingest.add_argument("--top-k", type=int, help="RCKs to use (default 5)")
    ingest.add_argument(
        "--json", action="store_true", help="print stats as JSON"
    )
    _add_trace_options(ingest)
    ingest.set_defaults(func=cmd_engine_ingest)

    stats = engine_sub.add_parser("stats", help="report store counters")
    stats.add_argument("--store", required=True, help="store snapshot path")
    stats.add_argument(
        "--json", action="store_true", help="print stats as JSON"
    )
    stats.set_defaults(func=cmd_engine_stats)

    query = engine_sub.add_parser(
        "query", help="print the identity cluster of a record"
    )
    query.add_argument("--store", required=True, help="store snapshot path")
    query.add_argument(
        "--side", required=True, choices=("left", "right"),
        help="which relation the record belongs to",
    )
    query.add_argument("--tid", required=True, type=int, help="tuple id")
    query.add_argument(
        "--json", action="store_true", help="print the cluster as JSON"
    )
    query.set_defaults(func=cmd_engine_query)

    migrate = engine_sub.add_parser(
        "migrate",
        help="convert a store between JSON snapshot and SQLite formats",
    )
    migrate.add_argument(
        "source", help="existing store file (snapshot or SQLite)"
    )
    migrate.add_argument(
        "dest", help="destination store file (must not exist; the "
        "opposite format of the source)",
    )
    migrate.add_argument(
        "--json", action="store_true", help="print a migration report as JSON"
    )
    migrate.set_defaults(func=cmd_engine_migrate)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio HTTP resolution service (repro.serve)",
    )
    _add_spec_options(serve)
    serve.add_argument(
        "--host", help="bind address (default: the spec's serve.host)"
    )
    serve.add_argument(
        "--port", type=int,
        help="bind port, 0 for ephemeral (default: the spec's serve.port)",
    )
    serve.add_argument(
        "--max-batch", type=int,
        help="ingest micro-batch size cap (default: serve.max_batch)",
    )
    serve.add_argument(
        "--max-delay-ms", type=int,
        help="micro-batch linger in milliseconds (default: serve.max_delay_ms)",
    )
    serve.add_argument(
        "--queue-limit", type=int,
        help="per-tenant ingest queue bound before 429 backpressure "
        "(default: serve.queue_limit)",
    )
    serve.set_defaults(func=cmd_serve)

    trace = sub.add_parser(
        "trace", help="inspect trace files written with --trace (repro.obs)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="aggregate a trace into a per-span table"
    )
    summarize.add_argument("file", help="trace file (chrome or jsonl format)")
    summarize.set_defaults(func=cmd_trace_summarize)
    trace_validate = trace_sub.add_parser(
        "validate", help="schema-check a trace file (exit 2 on problems)"
    )
    trace_validate.add_argument(
        "file", help="trace file (chrome or jsonl format)"
    )
    trace_validate.set_defaults(func=cmd_trace_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    # The command line as invoked, for trace manifests (sys.argv is the
    # test runner's when main() is called programmatically).
    args.argv = list(argv)
    try:
        return args.func(args)
    except SpecError as error:
        for message in error.errors:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed our stdout (e.g. `repro trace summarize | head`);
        # exit quietly instead of tracebacking.  Redirect stdout to devnull
        # so the interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
