"""``execution.max_cascade`` truncation must reach every caller.

A chained stream: one left anchor carries the informative ``B`` value,
and every right record shares its key ``A`` but arrives with ``B``
missing.  Each right record matches the anchor, the cluster consensus
repairs its ``B``, and the repaired record is queued for re-examination.
With ``max_cascade: 1`` the queue is cut off after the record's own
round, so every right ingest is truncated.  The truncation shows up in
the engine counter ``engine.cascade_truncated``, as a warning on stderr
from ``repro engine ingest``, and in each ``POST /ingest`` result.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.api import Workspace
from repro.api.spec import ResolutionSpec
from repro.cli import main
from repro.core.schema import LEFT, RIGHT
from repro.relations.csvio import save_relation
from repro.relations.relation import Relation
from repro.serve import ResolutionServer, ServerThread

#: (side, values): the anchor, then right records it repairs.
CHAIN = [(LEFT, {"A": "k", "B": "long-value"})] + [
    (RIGHT, {"A": "k", "B": None}) for _ in range(3)
]


def _document(max_cascade):
    return {
        "version": 1,
        "schema": {
            "left": {"name": "R", "attributes": ["A", "B"]},
            "right": {"name": "S", "attributes": ["A", "B"]},
        },
        "target": {"left": ["B"], "right": ["B"]},
        "rules": {"mds": ["R[A] = S[A] -> R[B] <=> S[B]"]},
        "blocking": {"backend": "hash"},
        "execution": {"mode": "enforce", "max_cascade": max_cascade},
    }


@pytest.mark.parametrize("max_cascade, truncated", [(1, 3), (256, 0)])
def test_engine_counts_truncated_cascades(max_cascade, truncated):
    workspace = Workspace.from_dict(_document(max_cascade))
    matcher = workspace.stream()
    results = [matcher.ingest(side, dict(values)) for side, values in CHAIN]
    assert sum(result.cascade_truncated for result in results) == truncated
    counters = workspace.metrics.as_dict()["counters"]
    assert counters.get("engine.cascade_truncated", 0) == truncated
    # Truncation cuts re-examination short; the direct matches stand.
    assert all(result.merged for result in results[1:])


def test_cli_ingest_warns_on_truncation(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec = ResolutionSpec.from_dict(_document(1))
    spec.save(spec_path)
    pair = spec.schema_pair()
    paths = {}
    for side, schema in ((LEFT, pair.left), (RIGHT, pair.right)):
        relation = Relation(schema)
        for record_side, values in CHAIN:
            if record_side == side:
                relation.insert(dict(values))
        paths[side] = tmp_path / f"{schema.name}.csv"
        save_relation(relation, paths[side])

    code = main([
        "engine", "ingest", "--spec", str(spec_path),
        "--store", str(tmp_path / "store.json"),
        "--left", str(paths[LEFT]), "--right", str(paths[RIGHT]),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "warning: the repair cascade hit its budget" in err
    assert "execution.max_cascade=1" in err
    assert "on 3 ingest(s)" in err


def test_http_ingest_result_carries_truncation():
    thread = ServerThread(
        ResolutionServer(ResolutionSpec.from_dict(_document(1)), port=0)
    )
    host, port = thread.start()
    try:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        records = [
            {"side": "left" if side == LEFT else "right", "values": values}
            for side, values in CHAIN
        ]
        connection.request(
            "POST", "/ingest", body=json.dumps({"records": records}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 200
        results = json.loads(response.read())["results"]
        connection.close()
    finally:
        thread.stop()
    assert [result["cascade_truncated"] for result in results] == [
        False, True, True, True,
    ]
