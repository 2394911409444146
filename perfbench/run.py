"""The repository's wall-clock benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload match-dup --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run that yields the per-layer metrics
(self time per layer from spans recorded around the layers' public
functions, plus the program's own counters).  Workloads and metrics
are listed in ``BENCHMARK.json``; ``perfbench/README.md`` says what each
one measures.  Every run checks the program's outputs first: a failed
check exits non-zero and prints no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
(the serve workload's store, span dumps) go to ``.perfbench/`` under the
repository root.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("match-dup", "match-clean", "stream-memory", "serve-durable")


def not_measured_by(name: str, entries) -> bool:
    """Whether ``entries`` (names, or prefixes ending in ".") cover ``name``."""
    return any(name == entry or (entry.endswith(".") and name.startswith(entry))
               for entry in entries)


def complete(declared, emitted, not_measured):
    """The declared metrics, in declared order: each as the workload
    emitted it, except those the workload declares it does not measure
    (``not_measured``), which read 0 in their declared unit.

    Raises ValueError unless the workload emitted exactly the declared
    metrics it measures, each in its declared unit, so that a forgotten
    or misspelt metric fails the run instead of reading 0."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    measured = {name for name in units if not not_measured_by(name, not_measured)}
    missing = sorted(measured - set(emitted))
    extra = sorted(set(emitted) - measured)
    if missing or extra:
        raise ValueError(f"metrics not emitted: {missing}; emitted but not "
                         f"declared as measured: {extra}")
    wrong = sorted(name for name in measured if emitted[name]["unit"] != units[name])
    if wrong:
        raise ValueError(f"metrics emitted in another unit than declared: {wrong}")
    return {
        name: emitted[name] if name in measured else {"value": 0.0, "unit": unit}
        for name, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from common import GateFailure

    out_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        if args.workload.startswith("match-"):
            import matchbench as bench
        elif args.workload == "stream-memory":
            import streambench as bench
        else:
            import servebench as bench
        result = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.size, out_dir)
    except GateFailure as failure:
        print(f"error: correctness gate failed: {failure}", file=sys.stderr)
        return 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    not_measured = bench.NOT_MEASURED[args.workload] if args.trace else ()
    try:
        metrics = complete(declared[section], result["metrics"], not_measured)
    except ValueError as error:
        print(f"error: {args.workload} trace {args.trace}: {error}", file=sys.stderr)
        return 3
    defaulted = [name for name in metrics if name not in result["metrics"]]
    if defaulted:
        print(f"# not measured on this workload, reported as 0: {', '.join(defaulted)}")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result.get("failed", 0)),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
