"""``serve-durable``: ``repro serve`` over a SQLite store, driven over HTTP.

The server runs in its own process.  A warm customer base is enrolled
offline into the store before launch (untimed).  Then one client process
sends an **open-loop** schedule over two keep-alive connections: single
record ``/ingest`` calls, ``/query/<tid>`` reads of acknowledged records
and one-pair ``/match`` calls in equal shares, evenly spaced at a fixed
base rate.  Every request is timed from the moment it was due, so a stall
also delays the requests queued behind it; 429s, 5xx answers and timeouts
count as failures and as misses of any latency limit.

After a graceful stop the store file is reopened offline: every
acknowledged record must be present, and the clusters must equal those
of a one-record-at-a-time ``Workspace.stream`` replay of the warm base
followed by the acknowledged records in ``seq`` order.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import calls, print_self_times, self_s, total_s
from common import (
    SIZES,
    GateFailure,
    build_spec,
    calibration_pass,
    cluster_key,
    host_factor,
    implied_pairs,
    median,
    metric,
    named_tail,
    percentile,
    quality,
    tail,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Base open-loop rate (requests/s) and its request mix.  The mix is an
#: assumption, not measured traffic: with none to copy, every kind gets
#: the same share, so each endpoint's figures rest on as many samples.
BASE_RATE = 60.0
MIX = ("ingest", "query", "match")
#: Requests of a mixed phase at the least: 200 of each kind, so that the
#: reported p95 of ingest has ten samples beyond it (see ``named_tail``).
MIN_REQUESTS = 600
#: Ingest-only rates tried for ``max_rate_rps``, and the limit each must
#: meet: the 90th-percentile ingest latency (each step has >= 10 samples
#: beyond it) with no growing backlog.
LADDER = (60.0, 90.0, 135.0, 200.0)
LADDER_LIMIT_MS = 50.0
LADDER_SAMPLES = 100
CONNECTIONS = 2
#: Server launches per run; ``setup_s`` is their median.
LAUNCHES = 9
#: Records per ``ingest_batch`` call when enrolling the warm base.
ENROL_BATCH = 16
TIMEOUT_S = 10.0

#: Per-layer metrics this workload does not measure: the server compiles
#: its workspace once, lazily, and the launcher counts no unions.
NOT_MEASURED = {
    "serve-durable": ("api.compile_s", "plan.union_calls", "plan.union_merge_ratio"),
}


@dataclass
class Slot:
    due: float
    kind: str
    payload: object
    pick: float = 0.0


@dataclass
class Outcome:
    kind: str
    due: float
    sent: float
    done: float
    status: int
    ack: Optional[Tuple[int, int, int]] = None  # (seq, side, tid)


@dataclass
class Inputs:
    source: object
    warm: list
    live: list
    spec: object
    seed: int
    enrol_comparisons: int = 0


def make_inputs(seed: int, size: str, store: Path) -> Inputs:
    """The serving-shaped dataset: 20% of card holders enrolled up
    front, then billing traffic in arrival order, most of it from
    holders the store has not seen."""
    from repro.core.schema import LEFT
    from repro.datagen.generator import generate_dataset
    from repro.datagen.streams import arrival_stream

    source = generate_dataset(
        SIZES[size]["serve-durable"], duplicate_fraction=0.15,
        namesake_fraction=0.35, seed=seed,
    )
    events = list(arrival_stream(source, seed=seed).events)
    warm = [e for e in events if e.side == LEFT and e.entity % 100 < 20]
    live = [e for e in events if e.side != LEFT]
    spec = (
        build_spec(source, "hash")
        .serve(port=0)
        .persistence("sqlite", path=str(store))
        .build()
    )
    return Inputs(source, warm, live, spec, seed)


def record_body(event) -> Dict[str, object]:
    return {"side": "left" if event.side == 0 else "right",
            "values": dict(event.values), "tid": event.tid}


def enrol(spec, warm) -> int:
    """Enrol the warm base offline, in micro-batches like the server;
    returns the pair comparisons it made (the store keeps counting)."""
    from repro.api import Workspace

    matcher = Workspace(spec).stream()
    try:
        for start in range(0, len(warm), ENROL_BATCH):
            matcher.ingest_batch(warm[start:start + ENROL_BATCH])
        return matcher.store.comparisons
    finally:
        matcher.store.close()


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------


class Server:
    """One server process: launch, health-check, stop gracefully."""

    def __init__(self, command: List[str], log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self._log = log.open("w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=env,
        )
        try:
            self.host, self.port = self._address()
            self._wait_healthy(started + 60.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _address(self) -> Tuple[str, int]:
        box: List[str] = []
        reader = threading.Thread(
            target=lambda: box.append(self.process.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(60.0)
        line = box[0] if box else ""
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r} (see {self._log.name})")
        host, port = line.strip().split(marker, 1)[1].rsplit(":", 1)
        return host, int(port)

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.005)
            finally:
                connection.close()
        raise RuntimeError("server never answered /healthz")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server process has used."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain, commit, close) and wait for exit."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop within 60 s")
        finally:
            self._close_streams()
        if code != 0:
            raise RuntimeError(f"server exited with {code} (see {self._log.name})")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._close_streams()

    def _close_streams(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def serve_command(spec_path: Path, spans: Optional[Path]) -> List[str]:
    if spans is None:
        return [sys.executable, "-u", "-m", "repro", "serve",
                "--spec", str(spec_path), "--port", "0"]
    return [sys.executable, "-u", str(HERE / "launcher.py"),
            "--spec", str(spec_path), "--out", str(spans)]


def get_json(server: Server, path: str):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return json.loads(response.read())
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Open-loop client
# ----------------------------------------------------------------------


def mixed_schedule(inputs: Inputs, live_from: int, seconds: float,
                   rate: float, rng: random.Random) -> List[Slot]:
    """Evenly spaced slots at ``rate``; every block of three slots holds
    one of each :data:`MIX` kind in a seeded order.  A ``/match`` call
    sends one enrolled and one live record, drawn uniformly: the
    smallest call that can find a match."""
    slots: List[Slot] = []
    live = iter(inputs.live[live_from:])
    lefts = [dict(e.values) for e in inputs.warm]
    rights = [dict(e.values) for e in inputs.live]
    block = list(MIX)
    count = max(int(seconds * rate), MIN_REQUESTS)
    count -= count % len(block)
    kinds: List[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    for index, kind in enumerate(kinds):
        due = index / rate
        if kind == "ingest":
            event = next(live, None)
            if event is None:
                raise RuntimeError("the dataset ran out of live records")
            slots.append(Slot(due, "ingest", record_body(event)))
        elif kind == "query":
            slots.append(Slot(due, "query", None, rng.random()))
        else:
            body = {"left": [rng.choice(lefts)], "right": [rng.choice(rights)]}
            slots.append(Slot(due, "match", body))
    return slots


def ingest_schedule(inputs: Inputs, live_from: int, seconds: float,
                    rate: float) -> List[Slot]:
    count = max(int(seconds * rate), LADDER_SAMPLES)
    events = inputs.live[live_from:live_from + count]
    if len(events) < count:
        raise RuntimeError("the dataset ran out of live records")
    return [Slot(i / rate, "ingest", record_body(e)) for i, e in enumerate(events)]


def query_target(inputs: Inputs, acked, pick: float) -> Optional[Tuple[int, int]]:
    """(side, tid) a query reads: an acknowledged record drawn uniformly,
    or an enrolled one while nothing is acknowledged yet."""
    if acked:
        _, side, tid = acked[int(pick * len(acked))]
        return side, tid
    if inputs.warm:
        event = inputs.warm[int(pick * len(inputs.warm))]
        return event.side, event.tid
    return None


def drive(server: Server, inputs: Inputs, slots: List[Slot],
          acked: List[Tuple[int, int, int]]) -> List[Outcome]:
    """Send the schedule open-loop over :data:`CONNECTIONS` connections.

    Any error of a request (connection, protocol, a malformed answer)
    makes it a failed outcome with status 0; a slot left without an
    outcome (a worker died) fails the whole run."""
    outcomes: List[Optional[Outcome]] = [None] * len(slots)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def worker() -> None:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(slots):
                    return
                slot = slots[index]
                due = start + slot.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, ack = 0, None
                try:
                    method, path, body = "POST", "/" + slot.kind, slot.payload
                    if slot.kind == "query":
                        with lock:
                            target = query_target(inputs, acked, slot.pick)
                        if target is None:
                            raise LookupError("no stored record to query")
                        side, tid = target
                        method, body = "GET", None
                        path = f"/query/{tid}?side={'left' if side == 0 else 'right'}"
                    data = json.dumps(body) if body is not None else None
                    headers = {"Content-Type": "application/json"} if data else {}
                    connection.request(method, path, body=data, headers=headers)
                    response = connection.getresponse()
                    raw = response.read()
                    status = response.status
                    if status == 200 and slot.kind == "ingest":
                        result = json.loads(raw)["results"][0]
                        ack = (result["seq"], 0 if result["side"] == "left" else 1,
                               result["tid"])
                        with lock:
                            acked.append(ack)
                except Exception:
                    status, ack = 0, None
                    connection.close()
                    connection = http.client.HTTPConnection(
                        server.host, server.port, timeout=TIMEOUT_S)
                outcomes[index] = Outcome(slot.kind, due, sent, time.perf_counter(),
                                          status, ack)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    missing = sum(1 for outcome in outcomes if outcome is None)
    if missing:
        raise RuntimeError(f"{missing} of {len(slots)} requests have no outcome")
    return outcomes


def latencies_ms(outcomes: List[Outcome], kind: str) -> List[float]:
    """Due-to-done latency; a failed request counts as a timeout."""
    return [
        (o.done - o.due) * 1000.0 if o.status == 200 else TIMEOUT_S * 1000.0
        for o in outcomes if o.kind == kind
    ]


def failures(outcomes: List[Outcome]) -> Dict[str, int]:
    return {
        "rejected": sum(1 for o in outcomes if o.status == 429),
        "failed": sum(1 for o in outcomes if o.status != 200 and o.status != 429),
    }


def ladder(server: Server, inputs: Inputs, live_from: int, seconds: float,
           acked) -> Tuple[float, List[str]]:
    """Highest :data:`LADDER` rate meeting the limit, and report lines."""
    step_s = seconds / len(LADDER)
    best, used, lines = 0.0, 0, []
    for rate in LADDER:
        slots = ingest_schedule(inputs, live_from + used, step_s, rate)
        used += len(slots)
        outcomes = drive(server, inputs, slots, acked)
        values = latencies_ms(outcomes, "ingest")
        label, value = tail(values, 90.0)
        third = max(1, len(outcomes) // 3)
        late_first = median(o.sent - o.due for o in outcomes[:third])
        late_last = median(o.sent - o.due for o in outcomes[-third:])
        growing = late_last > late_first + LADDER_LIMIT_MS / 1000.0
        failed = sum(failures(outcomes).values())
        ok = label == "p90" and value <= LADDER_LIMIT_MS and not growing and not failed
        lines.append(f"# ladder {rate:g} rps: {len(values)} ingests, "
                     f"{label} {value:.2f} ms, backlog {'growing' if growing else 'flat'}, "
                     f"{failed} failed -> {'meets' if ok else 'misses'} the "
                     f"{LADDER_LIMIT_MS:g} ms limit")
        if not ok:
            break
        best = rate
    return best, lines


# ----------------------------------------------------------------------
# Durability and equivalence gates
# ----------------------------------------------------------------------


def check_store(inputs: Inputs, store_path: Path, acked) -> list:
    """Reopen the stopped server's store; returns its clusters."""
    from repro.api import Workspace
    from repro.core.schema import LEFT, RIGHT

    store = Workspace(inputs.spec).open_store(store_path)
    try:
        for seq, side, tid in acked:
            if tid not in store.relation(side):
                raise GateFailure(
                    f"acknowledged record seq {seq} ({'left' if side == LEFT else 'right'}"
                    f" tid {tid}) is missing from the reopened store")
        stored = {(LEFT, t) for t in store.relation(LEFT).tids()} | {
            (RIGHT, t) for t in store.relation(RIGHT).tids()}
        clusters = store.clusters()
    finally:
        store.close(commit=False)
    expected = {(e.side, e.tid) for e in inputs.warm} | {(s, t) for _, s, t in acked}
    if stored != expected:
        raise GateFailure(
            f"the store holds {len(stored)} records, expected the "
            f"{len(expected)} enrolled or acknowledged")
    return clusters


def check_replay(inputs: Inputs, clusters, acked) -> None:
    """Clusters equal a one-at-a-time replay in acknowledgement order."""
    from repro.api import Workspace

    document = inputs.spec.to_dict()
    document.pop("persistence", None)
    matcher = Workspace(document).stream()
    for event in inputs.warm:
        matcher.ingest(event.side, dict(event.values), tid=event.tid)
    values = {(e.side, e.tid): e.values for e in inputs.live}
    for seq, side, tid in sorted(acked):
        matcher.ingest(side, dict(values[(side, tid)]), tid=tid)
    if cluster_key(matcher.store.clusters()) != cluster_key(clusters):
        raise GateFailure(
            "the served store's clusters differ from a one-at-a-time "
            "replay of the acknowledged records in seq order")


def verify(inputs: Inputs, store_path: Path, acked) -> Tuple[float, float, int]:
    """Run both gates; (precision, recall, records stored)."""
    if len({seq for seq, _, _ in acked}) != len(acked):
        raise GateFailure("two acknowledgements share a seq number")
    clusters = check_store(inputs, store_path, acked)
    check_replay(inputs, clusters, acked)
    stored = {e.tid for e in inputs.warm}
    billing = {tid for _, side, tid in acked if side == 1}
    truth = {(c, b) for c, b in inputs.source.true_matches
             if c in stored and b in billing}
    precision, recall = quality(implied_pairs(clusters), truth)
    return precision, recall, len(inputs.warm) + len(acked)


def disk_bytes(path: Path) -> int:
    return sum(
        Path(str(path) + suffix).stat().st_size
        for suffix in ("", "-wal", "-shm")
        if Path(str(path) + suffix).exists()
    )


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def prepare(seed: int, size: str, out_dir: Path) -> Tuple[Inputs, Path]:
    """Inputs, and a warm store to copy for each server."""
    warm_store = out_dir / "warm.sqlite"
    inputs = make_inputs(seed, size, warm_store)
    inputs.enrol_comparisons = enrol(inputs.spec, inputs.warm)
    return inputs, warm_store


def fresh_store(inputs: Inputs, warm_store: Path, out_dir: Path, name: str):
    """A copy of the warm store and a spec file pointing at it."""
    store = out_dir / f"{name}.sqlite"
    shutil.copyfile(warm_store, store)
    document = inputs.spec.to_dict()
    document["persistence"]["path"] = str(store)
    spec_path = out_dir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(document))
    return store, spec_path


def launch_measured(spec_path: Path, out_dir: Path) -> Tuple[Server, List[float]]:
    """:data:`LAUNCHES` launches, each bracketed by calibration passes;
    all but the last are stopped again.  Returns the server and the
    launch times scaled to the reference host speed."""
    setups = []
    before = calibration_pass()
    for attempt in range(LAUNCHES):
        server = Server(serve_command(spec_path, None), out_dir / f"server-{attempt}.log")
        after = calibration_pass()
        setups.append(server.setup_s * host_factor(before, after))
        before = after
        if attempt < LAUNCHES - 1:
            server.stop()
    return server, setups


def tenant_stats(metrics) -> Dict[str, object]:
    tenants = metrics.get("tenants") or {}
    return next(iter(tenants.values()), {})


def histogram(registry, name):
    return (registry.get("histograms") or {}).get(name, {"count": 0})


def end_to_end(inputs, warm_store, out_dir, seconds) -> Dict[str, object]:
    rng = random.Random(inputs.seed)
    store, spec_path = fresh_store(inputs, warm_store, out_dir, "measured")
    server, setups = launch_measured(spec_path, out_dir)
    acked: List[Tuple[int, int, int]] = []
    try:
        slots = mixed_schedule(inputs, 0, seconds, BASE_RATE, rng)
        started = time.perf_counter()
        outcomes = drive(server, inputs, slots, acked)
        wall = time.perf_counter() - started
        rss = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    server.stop()
    precision, recall, records = verify(inputs, store, acked)
    ingest = latencies_ms(outcomes, "ingest")
    lost = failures(outcomes)
    print(f"# {len(outcomes)} requests at {BASE_RATE:g}/s over {CONNECTIONS} "
          f"connections in {wall:.2f} s: {len(ingest)} ingest, "
          f"{len(latencies_ms(outcomes, 'query'))} query, "
          f"{len(latencies_ms(outcomes, 'match'))} match; "
          f"{lost['rejected']} rejected, {lost['failed']} failed; "
          f"setup median of {len(setups)} launches")
    for kind in ("ingest", "query", "match"):
        values = latencies_ms(outcomes, kind)
        label, value = tail(values, 99.0)
        print(f"# {kind}: p50 {percentile(values, 50):.2f} ms, {label} {value:.2f} ms "
              f"({len(values)} samples)")
    return {
        "attempted": len(outcomes),
        "failed": lost["rejected"] + lost["failed"],
        "metrics": {
            "setup_s": metric(median(setups), "s"),
            # The open-loop schedule fixes this at the offered ingest
            # rate unless requests fail or fall behind; the server's own
            # cost per record is serve.records_per_cpu_s (per layer).
            "records_per_s": metric(len(acked) / wall, "1/s"),
            "latency_p50_ms": metric(percentile(ingest, 50), "ms"),
            "precision": metric(precision, "ratio"),
            "recall": metric(recall, "ratio"),
            "peak_rss_mb": metric(rss, "MB"),
        },
    }


def per_layer(inputs, warm_store, out_dir, seconds) -> Dict[str, object]:
    """Untraced mixed phase + ladder, then the same mixed phase traced."""
    phase = seconds / 3
    layer: Dict[str, Dict[str, object]] = {}

    # Untraced: client-side metrics, server metrics, capacity ladder.
    store, spec_path = fresh_store(inputs, warm_store, out_dir, "plain")
    server = Server(serve_command(spec_path, None), out_dir / "plain.log")
    acked: List[Tuple[int, int, int]] = []
    try:
        slots = mixed_schedule(inputs, 0, phase, BASE_RATE, random.Random(inputs.seed))
        before = calibration_pass()
        cpu_started = server.cpu_seconds()
        outcomes = drive(server, inputs, slots, acked)
        cpu = server.cpu_seconds() - cpu_started
        mixed_acked = len(acked)
        plain_factor = host_factor(before, calibration_pass())
        plain = get_json(server, "/metrics")
        used = sum(1 for s in slots if s.kind == "ingest")
        max_rate, lines = ladder(server, inputs, used, phase, acked)
    except BaseException:
        server.kill()
        raise
    server.stop()
    verify(inputs, store, acked)
    for line in lines:
        print(line)

    # Traced: the same mixed schedule against a launcher-wrapped server.
    traced_store, traced_spec = fresh_store(inputs, warm_store, out_dir, "traced")
    spans_path = out_dir / "spans.json"
    server = Server(serve_command(traced_spec, spans_path), out_dir / "traced.log")
    traced_acked: List[Tuple[int, int, int]] = []
    try:
        before = calibration_pass()
        drive(server, inputs, slots, traced_acked)
        traced_factor = host_factor(before, calibration_pass())
    except BaseException:
        server.kill()
        raise
    server.stop()
    verify(inputs, traced_store, traced_acked)
    dump = json.loads(spans_path.read_text())
    totals = dump["totals"]
    ingest_spans = [value * 1000.0 for value in dump["ingest_durations"]]
    traced_tenant = next(iter(dump["metrics"]["tenants"].values()))

    batches = max(calls(totals, "engine.ingest_batch"), 1)
    tenant = tenant_stats(plain)
    engine = tenant.get("metrics", {})
    server_hist = plain["server"]
    plan = traced_tenant.get("plan", {})
    store_stats = traced_tenant.get("store", {})
    traced_engine = traced_tenant.get("metrics", {})
    ingests = max(traced_engine.get("counters", {}).get("engine.ingests", 0), 1)
    merges = traced_engine.get("counters", {}).get("engine.merges", 0)
    comparisons = store_stats.get("comparisons", 0) - inputs.enrol_comparisons
    ingest_client = latencies_ms(outcomes, "ingest")
    lost = failures(outcomes)
    lookups = plan.get("metric_evaluations", 0) + plan.get("cache_hits", 0)
    batch_sizes = histogram(engine, "engine.batch_size")
    batch_seconds = histogram(engine, "engine.batch_seconds")
    ingest_server = histogram(server_hist, "serve.ingest.seconds")
    traced_batch = histogram(traced_engine, "engine.batch_seconds")
    late = [(o.sent - o.due) * 1000.0 for o in outcomes]
    late_value = named_tail(late, 95.0)
    records = len(inputs.warm) + len(acked)

    def server_ms(endpoint, q):
        summary = histogram(server_hist, f"serve.{endpoint}.seconds")
        return summary.get(q, 0.0) * 1000.0

    for name, value, unit in (
        ("api.provenance_s", self_s(totals, "api.match") / max(calls(totals, "api.match"), 1), "s"),
        ("plan.blocking_s", total_s(totals, "plan.candidates") / max(calls(totals, "plan.candidates"), 1), "s"),
        ("plan.candidates", plan.get("pairs_compared", 0) / batches, "count"),
        ("plan.match_yield", merges / max(comparisons, 1), "ratio"),
        ("plan.predicate_evals", plan.get("metric_evaluations", 0) / batches, "count"),
        ("plan.cache_hit_ratio", plan.get("cache_hits", 0) / lookups if lookups else 0.0, "ratio"),
        ("plan.groups", plan.get("groups_built", 0) / batches, "count"),
        ("plan.pairs_per_group", plan.get("pairs_compared", 0) / max(plan.get("groups_built", 0), 1), "ratio"),
        ("plan.chase_s", total_s(totals, "plan.enforce") / batches, "s"),
        ("plan.chase_self_s", self_s(totals, "plan.enforce") / batches, "s"),
        ("plan.verdict_s", self_s(totals, "plan.group_verdict") / batches, "s"),
        ("plan.evaluate_s", self_s(totals, "plan.evaluate") / batches, "s"),
        ("plan.chases", plan.get("enforcements", 0) / batches, "count"),
        ("plan.chase_rounds", plan.get("chase_rounds", 0) / batches, "count"),
        ("plan.rule_applications", plan.get("rule_applications", 0) / batches, "count"),
        ("core.find_rcks_s", total_s(totals, "core.find_rcks"), "s"),
        ("engine.ingest_p50_ms", percentile(ingest_spans, 50), "ms"),
        ("engine.ingest_p95_ms", named_tail(ingest_spans, 95.0), "ms"),
        ("engine.ingest_batch_s", total_s(totals, "engine.ingest_batch") / batches, "s"),
        ("engine.ingest_batch_self_s", self_s(totals, "engine.ingest_batch") / batches, "s"),
        ("engine.batch_size", batch_sizes.get("mean", 0.0), "count"),
        ("engine.chases_per_record", plan.get("enforcements", 0) / ingests, "ratio"),
        ("engine.comparisons", comparisons / ingests, "count"),
        ("engine.merge_yield", merges / ingests, "ratio"),
        ("engine.store.add_s", total_s(totals, "store.add") / batches, "s"),
        ("engine.store.probe_s", total_s(totals, "store.neighbors") / batches, "s"),
        ("engine.store.commit_s", total_s(totals, "store.commit") / batches, "s"),
        ("engine.store.records_per_commit", ingests / max(calls(totals, "store.commit"), 1), "ratio"),
        ("engine.store.disk_bytes", disk_bytes(store), "bytes"),
        ("serve.server_ms.ingest_p50", server_ms("ingest", "p50"), "ms"),
        ("serve.server_ms.query_p50", server_ms("query", "p50"), "ms"),
        ("serve.server_ms.match_p50", server_ms("match", "p50"), "ms"),
        ("serve.queue_wait_ms", (ingest_server.get("mean", 0.0) - batch_seconds.get("mean", 0.0)) * 1000.0, "ms"),
        ("serve.batch_fill", batch_sizes.get("mean", 0.0) / tenant.get("queue", {}).get("max_batch", 16), "ratio"),
        ("serve.wire_ms", percentile(ingest_client, 50) - server_ms("ingest", "p50"), "ms"),
        ("serve.rejected", lost["rejected"], "count"),
        ("serve.failed", lost["failed"], "count"),
        ("serve.ingest_p95_ms", named_tail(ingest_client, 95.0), "ms"),
        ("serve.query_p90_ms", named_tail(latencies_ms(outcomes, "query"), 90.0), "ms"),
        ("serve.match_p90_ms", named_tail(latencies_ms(outcomes, "match"), 90.0), "ms"),
        ("serve.max_rate_rps", max_rate, "1/s"),
        ("serve.records_per_cpu_s", mixed_acked / (cpu * plain_factor), "1/s"),
        ("serve.error_rate", (lost["rejected"] + lost["failed"]) / len(outcomes), "ratio"),
        ("serve.disk_bytes_per_record", disk_bytes(store) / records, "bytes"),
        ("load.late_p95_ms", late_value, "ms"),
        # Engine time per batch, traced over untraced, each scaled to the
        # reference host speed measured around its phase.
        ("trace.overhead", traced_batch.get("mean", 0.0) * traced_factor
         / max(batch_seconds.get("mean", 0.0) * plain_factor, 1e-12), "ratio"),
    ):
        layer[name] = metric(value, unit)
    print_self_times(totals, batches, "micro-batch")
    print(f"# untraced: {len(outcomes)} mixed requests then the ladder; "
          f"traced: the same {len(slots)} mixed requests")
    return {"attempted": len(outcomes), "failed": lost["rejected"] + lost["failed"],
            "metrics": layer}


def run(workload: str, seed: int, seconds: float, traced: bool, size: str,
        out_dir: Path) -> Dict[str, object]:
    inputs, warm_store = prepare(seed, size, out_dir)
    try:
        if traced:
            return per_layer(inputs, warm_store, out_dir, seconds)
        return end_to_end(inputs, warm_store, out_dir, seconds)
    finally:
        for path in out_dir.glob("*.sqlite*"):
            path.unlink()
