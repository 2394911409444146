"""The benchmark's own smoke test, at tiny input sizes.

    python3 perfbench/smoke.py

Checks that:

* every workload of ``BENCHMARK.json`` emits every declared metric with
  its declared unit, untraced and traced;
* a run whose workload leaves out a metric it measures, or misspells
  one, is refused instead of reading 0;
* the serve durability gate trips when one acknowledged record is
  deleted from a copy of the stopped server's store;
* the stream = batch gate trips when one event is dropped from the
  stream;
* the benchmark fails without printing a result in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from common import GateFailure  # noqa: E402

SEED = 1
SCRATCH = ROOT / ".perfbench" / "smoke"


def run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in declared["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_benchmark(ROOT, workload["name"], trace)
            if done.returncode != 0:
                raise AssertionError(f"{workload['name']} trace {trace}: {done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert result["correct"] is True
            assert result["attempted"] >= 1
            want = {entry["name"]: entry["unit"] for entry in declared[section]}
            got = {name: value["unit"] for name, value in result["metrics"].items()}
            if got != want:
                raise AssertionError(
                    f"{workload['name']} trace {trace}: metrics {sorted(got)} "
                    f"differ from the declared {sorted(want)}")
            print(f"ok: {workload['name']} trace {trace} emits all "
                  f"{len(want)} {section} metrics with their units")


def check_metric_completion() -> None:
    import run

    declared = [{"name": "a.x_s", "unit": "s"}, {"name": "a.y", "unit": "count"},
                {"name": "b.z_s", "unit": "s"}]
    emitted = {"a.x_s": {"value": 1.0, "unit": "s"}, "a.y": {"value": 2.0, "unit": "count"}}
    done = run.complete(declared, emitted, ("b.",))
    assert done["b.z_s"] == {"value": 0.0, "unit": "s"}, done
    for broken, why in (
        ({"a.x_s": emitted["a.x_s"]}, "a measured metric left out"),
        ({"a.x_s": emitted["a.x_s"], "a.yy": emitted["a.y"]}, "a misspelt metric"),
        ({**emitted, "b.z_s": {"value": 3.0, "unit": "s"}}, "a metric declared unmeasured"),
        ({**emitted, "a.y": {"value": 2.0, "unit": "s"}}, "a metric in the wrong unit"),
    ):
        try:
            run.complete(declared, broken, ("b.",))
        except ValueError:
            continue
        raise AssertionError(f"metric completion accepted {why}")
    print("ok: a missing, misspelt, unmeasured or wrongly unitised metric is refused")


def check_durability_gate() -> None:
    import servebench

    work = SCRATCH / "serve"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, warm_store = servebench.prepare(SEED, "tiny", work)
    store, spec_path = servebench.fresh_store(inputs, warm_store, work, "served")
    server = servebench.Server(servebench.serve_command(spec_path, None),
                               work / "server.log")
    acked = []
    try:
        slots = servebench.ingest_schedule(inputs, 0, 0.5, 60.0)
        servebench.drive(server, inputs, slots, acked)
    except BaseException:
        server.kill()
        raise
    server.stop()
    servebench.verify(inputs, store, acked)
    damaged = work / "damaged.sqlite"
    shutil.copyfile(store, damaged)
    _, side, tid = acked[len(acked) // 2]
    with sqlite3.connect(damaged) as connection:
        deleted = connection.execute(
            "DELETE FROM records WHERE side = ? AND tid = ?", (side, tid)
        ).rowcount
    assert deleted == 1, deleted
    try:
        servebench.verify(inputs, damaged, acked)
    except GateFailure as failure:
        print(f"ok: durability gate trips on a deleted acked record: {failure}")
    else:
        raise AssertionError("durability gate passed a store missing an acked record")


def check_stream_gate() -> None:
    import streambench

    dataset, events, spec = streambench.make_inputs(SEED, "tiny")
    matcher = streambench.stream_once(spec, events)[0]
    streambench.check(spec, dataset, matcher)
    # Drop a record that the batch run puts in a cluster.
    clustered = {tid for c in matcher.store.clusters() for tid in c.right_tids}
    dropped = next(e for e in events if e.side == 1 and e.tid in clustered)
    short = [e for e in events if e is not dropped]
    matcher = streambench.stream_once(spec, short)[0]
    try:
        streambench.check(spec, dataset, matcher)
    except GateFailure as failure:
        print(f"ok: stream = batch gate trips on a dropped event: {failure}")
    else:
        raise AssertionError("stream = batch gate passed with an event dropped")


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(bare, "match-dup", 0)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print(f"ok: without the program's sources the run exits {done.returncode} "
          "and prints no result")


def main() -> int:
    try:
        check_metric_completion()
        check_metrics()
        check_durability_gate()
        check_stream_gate()
        check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
