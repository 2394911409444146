"""Record the match workloads' exact outputs for every pooled dataset.

    python3 perfbench/record_expected.py

writes ``perfbench/expected.json``: for each match workload and each of
the ``DATASET_POOL`` generator seeds, the digest of the matched pairs,
the candidate count and the cluster count.  The benchmark's match gate
requires every run to reproduce these exactly, so re-record only when a
change is meant to alter what the program matches, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from common import DATASET_POOL, match_inputs  # noqa: E402
from matchbench import EXPECTED, compile_workspace, outcome  # noqa: E402


def main() -> int:
    table = {}
    for workload in ("match-dup", "match-clean"):
        table[workload] = {}
        for seed in range(DATASET_POOL):
            dataset, spec = match_inputs(workload, seed, "full")
            report = compile_workspace(spec).match(dataset.credit, dataset.billing)
            table[workload][str(seed)] = outcome(report)
            print(workload, seed, table[workload][str(seed)], flush=True)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
