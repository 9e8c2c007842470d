"""``serve_hot_reads`` and ``serve_durable_writes``.

The program runs as ``python -m repro serve`` in its own process; this
process is the only client.  It drives a closed loop over
``CONNECTIONS`` keep-alive connections (one thread and one
:class:`~repro.serve.client.ServeClient` each): every connection sends
its next request only after the previous answer arrived.  One
connection, with the client and the program on one CPU: more
connections only queue on each other, and a second CPU adds wake-ups
whose cost on a shared host varies by whole factors.  Every
``PROBE_EVERY`` requests the client times round trips to the reference
service on that CPU, which puts every timing at the reference speed (see
:func:`_end_to_end`).

The operation mix per workload (the rest are single-target reads):

* ``serve_hot_reads`` — 10% ``implies_all`` over one source's targets,
  5% keyed re-sends of a mutation the set-up applied (the server
  acknowledges them from its idempotency map; nothing changes);
* ``serve_durable_writes`` — 10% ``implies_all``, 10% keyed
  ``add``/``retract`` toggles, one in flight at a time so that the
  premise set at every version is known.

Every answer is checked against the naive oracle for the premise set
at the version the answer reports.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import threading
import time
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Optional

from common import (
    CLIENT_CPU,
    REFERENCE_ROUND_TRIP_S,
    BenchError,
    HostSpeed,
    ReferenceService,
    ServerProcess,
    WorkDir,
    mean,
    median,
    peak_rss_mb,
    percentile,
    pin,
    ratio,
    write_spans,
)
from inputs import TENANT, ServedInputs, ind_oracle, live_toggle, served_inputs, toggle_step

from repro.serve.client import ServeClient
from repro.serve.protocol import ServeError

SETUPS = 11
CONNECTIONS = 1
SNAPSHOT_EVERY = 64
REPLAY_KEY = "perfbench-replay"
RECORDED_REQUESTS = 2000
PROBE_EVERY = 40
PROBE_REPEATS = 2
SETUP_PROBE_TRIPS = 5
MIX = {
    # workload: (write share, batch share)
    "serve_hot_reads": (0.05, 0.10),
    "serve_durable_writes": (0.10, 0.10),
}
_TRANSPORT_ERRORS = (ServeError, OSError, http.client.HTTPException)


@dataclass
class Sample:
    kind: str
    seconds: float
    answers: list[tuple[int, Any, int, bool]]  # (pool index, verdict, version, degraded)
    trace: Optional[dict] = None
    done: float = 0.0
    after_probe: bool = False  # the first operation after a probe


@dataclass
class Phase:
    started: float = 0.0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    samples: list[Sample] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    sent: list[tuple[int, bytes]] = field(default_factory=list)
    probes: list[tuple[float, float, float]] = field(default_factory=list)

    def of(self, kind: str) -> list[Sample]:
        return [sample for sample in self.samples if sample.kind == kind]

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


class Writes:
    """The durable workload's mutation plan, one write in flight."""

    def __init__(self):
        self.lock = threading.Lock()
        self.acked: list[tuple[str, str]] = []
        self.broken = False


class Oracle:
    """Naive verdicts for the pool, per premise set (memoized)."""

    def __init__(self, inputs: ServedInputs, hot: bool):
        self.inputs = inputs
        self.hot = hot
        self._cache: dict[Optional[str], list[bool]] = {}

    def extra_at(self, version: int, acked: int) -> Optional[str]:
        """The premise beyond the base bundle live at ``version``."""
        if self.hot:
            if version == 1:
                return self.inputs.replay
            if version == 0:
                return None
            raise KeyError(version)
        if version > acked:
            raise KeyError(version)
        return live_toggle(self.inputs, version)

    def verdicts(self, extra: Optional[str]) -> list[bool]:
        if extra not in self._cache:
            premises = self.inputs.base + ([extra] if extra else [])
            self._cache[extra] = ind_oracle(premises, self.inputs.pool)
        return self._cache[extra]

    def prepare(self) -> None:
        self.verdicts(None)
        extras = [self.inputs.replay] if self.hot else self.inputs.toggles
        for extra in extras:
            self.verdicts(extra)


class _Recorder:
    """Keeps the first raw bytes the client sends, per connection."""

    def __init__(self, sink: list[tuple[int, bytes]], limit: int):
        self.sink = sink
        self.limit = limit
        self.original = http.client.HTTPConnection.send

    def __enter__(self):
        recorder = self

        def send(conn, data):
            if len(recorder.sink) < recorder.limit and isinstance(data, bytes):
                recorder.sink.append((id(conn), data))
            return recorder.original(conn, data)

        http.client.HTTPConnection.send = send
        return self

    def __exit__(self, *_exc):
        http.client.HTTPConnection.send = self.original


def _loop(
    reference: ReferenceService,
    port: int,
    inputs: ServedInputs,
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    writes: Writes,
) -> Phase:
    """One closed-loop phase over ``CONNECTIONS`` connections."""
    write_share, batch_share = MIX[workload]
    durable = workload == "serve_durable_writes"
    population = range(len(inputs.pool))
    cumulative = []
    total = 0.0
    for weight in inputs.weights:
        total += weight
        cumulative.append(total)
    suffix = "?trace=1" if traced else ""
    phase = Phase()
    lock = threading.Lock()
    start = phase.started = time.perf_counter()
    deadline = start + seconds

    def worker(index: int) -> None:
        rng = random.Random(seed * 7919 + index * 104729 + int(traced))
        samples: list[Sample] = []
        probes: list[tuple[float, float, float]] = []
        attempted = failed = 0
        errors: list[str] = []
        client = ServeClient(port=port)
        try:
            while time.perf_counter() < deadline:
                probed = attempted % PROBE_EVERY == 0
                if probed:
                    probes.append(_probe(reference))
                roll = rng.random()
                attempted += 1
                retried = client.retried
                try:
                    if roll < write_share:
                        sample = _write(client, inputs, writes, durable, suffix)
                    elif roll < write_share + batch_share:
                        group = rng.choice(inputs.groups)
                        sample = _batch(client, inputs, group, suffix)
                    else:
                        target = rng.choices(population, cum_weights=cumulative)[0]
                        sample = _read(client, inputs, target, suffix)
                except _TRANSPORT_ERRORS as exc:
                    failed += 1
                    if len(errors) < 5:
                        errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                if client.retried != retried:
                    failed += 1
                    if len(errors) < 5:
                        errors.append("client retried a request")
                    continue
                if sample is None:
                    attempted -= 1  # the plan stopped writing; nothing sent
                else:
                    sample.done = time.perf_counter()
                    sample.after_probe = probed
                    samples.append(sample)
        finally:
            client.close()
            with lock:
                phase.samples.extend(samples)
                phase.probes.extend(probes)
                phase.attempted += attempted
                phase.failed += failed
                phase.errors.extend(errors)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"bench-conn-{i}")
        for i in range(CONNECTIONS)
    ]
    recording = (
        _Recorder(phase.sent, RECORDED_REQUESTS) if traced else nullcontext()
    )
    with recording:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.seconds = time.perf_counter() - start
    return phase


def _probe(reference: ReferenceService) -> tuple[float, float, float]:
    """Round trips to the reference service, timed between two requests
    on the CPU that runs both the client and the program: ``(midpoint
    clock, seconds per round trip, wall seconds taken)``."""
    started = time.perf_counter()
    per_trip = reference.round_trip(PROBE_REPEATS)
    wall = time.perf_counter() - started
    return started + wall / 2, per_trip, wall


def _timed(client: ServeClient, path: str, payload: dict) -> tuple[dict, float]:
    started = time.perf_counter()
    reply = client.request("POST", path, payload)
    return reply, time.perf_counter() - started


def _answer(index: int, reply: dict) -> tuple[int, Any, int, bool]:
    return index, reply["verdict"], reply["version"], reply["degraded"]


def _read(client, inputs, index, suffix) -> Sample:
    reply, seconds = _timed(
        client, f"/tenants/{TENANT}/implies{suffix}",
        {"target": inputs.pool[index], "semantics": "unrestricted"},
    )
    return Sample("read", seconds, [_answer(index, reply)], reply.get("trace"))


def _batch(client, inputs, group, suffix) -> Sample:
    reply, seconds = _timed(
        client, f"/tenants/{TENANT}/implies_all{suffix}",
        {"targets": [inputs.pool[i] for i in group], "semantics": "unrestricted"},
    )
    answers = [_answer(i, answer) for i, answer in zip(group, reply["answers"])]
    if len(answers) != len(group):
        raise ServeError(502, "implies_all answered a different batch size")
    return Sample("batch", seconds, answers, reply.get("trace"))


def _write(client, inputs, writes: Writes, durable: bool, suffix) -> Optional[Sample]:
    if not durable:
        reply, seconds = _timed(
            client, f"/tenants/{TENANT}/add{suffix}",
            {"dependencies": [inputs.replay], "key": REPLAY_KEY},
        )
        if not reply.get("idempotent_replay") or reply.get("version") != 1:
            raise ServeError(502, f"keyed re-send was not a replay: {reply}")
        return Sample("write", seconds, [], reply.get("trace"))
    with writes.lock:
        if writes.broken:
            return None
        index = len(writes.acked)
        op, dep = toggle_step(inputs, index)
        try:
            reply, seconds = _timed(
                client, f"/tenants/{TENANT}/{op}{suffix}",
                {"dependencies": [dep], "key": str(uuid.uuid4())},
            )
        except _TRANSPORT_ERRORS:
            writes.broken = True  # unknown whether it applied: stop writing
            raise
        changed = reply.get("added" if op == "add" else "removed")
        if reply.get("version") != index + 1 or changed != [dep]:
            writes.broken = True
            raise ServeError(502, f"{op} {dep} acknowledged as {reply}")
        writes.acked.append((op, dep))
    return Sample("write", seconds, [], reply.get("trace"))


def _check(phase: Phase, oracle: Oracle, writes: Writes, report) -> None:
    """Count wrong, degraded or unverifiable answers as failures."""
    wrong = 0
    kept = []
    for sample in phase.samples:
        ok = True
        for index, verdict, version, degraded in sample.answers:
            try:
                extra = oracle.extra_at(version, len(writes.acked))
            except KeyError:
                ok = False
                break
            if degraded or verdict != oracle.verdicts(extra)[index]:
                ok = False
                break
        if ok:
            kept.append(sample)
        else:
            wrong += 1
    phase.samples = kept
    phase.failed += wrong
    if wrong:
        report.wrong(f"{wrong} operation(s) answered wrongly or degraded")


def _scrape(port: int) -> dict[str, float]:
    """One ``GET /metrics`` as ``{series: value}``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()
    series = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


def _delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _start(work: str, index: int, bundle_path: str, durable: bool) -> ServerProcess:
    args = ["--tenant", f"{TENANT}={bundle_path}"]
    if durable:
        args += [
            "--state-dir", os.path.join(work, f"state{index}"),
            "--snapshot-every", str(SNAPSHOT_EVERY),
        ]
    return ServerProcess(args, os.path.join(work, f"server{index}.log")).start()


def _server_args(durable: bool) -> str:
    flags = "--port 0 --tenant bench=<bundle>"
    if durable:
        flags += f" --state-dir <tmp> --snapshot-every {SNAPSHOT_EVERY}"
    return flags


def run(workload: str, seed: int, seconds: float, trace: bool, report) -> None:
    durable = workload == "serve_durable_writes"
    pin(0, CLIENT_CPU)
    inputs = served_inputs()
    oracle = Oracle(inputs, hot=not durable)
    oracle.prepare()
    report.record["server_flags"] = _server_args(durable)
    report.record["flush_policy"] = (
        f"fsync per acknowledged mutation, snapshot every {SNAPSHOT_EVERY}"
        if durable else "none (no --state-dir)"
    )
    report.record["connections"] = CONNECTIONS
    report.record["loop"] = "closed"
    report.record["mix"] = dict(zip(("write", "batch"), MIX[workload]))
    with WorkDir() as work, ReferenceService() as reference:
        bundle_path = os.path.join(work, "bundle.json")
        with open(bundle_path, "w", encoding="utf-8") as fp:
            json.dump(inputs.bundle, fp)
        setups, setup_trips = [], []
        server = None
        try:
            for index in range(SETUPS):
                before = reference.round_trip(SETUP_PROBE_TRIPS)
                started = time.perf_counter()
                server = _start(work, index, bundle_path, durable)
                client = ServeClient(port=server.port)
                try:
                    warm = client.implies_all(TENANT, inputs.pool)
                    if not durable:
                        client.add(TENANT, [inputs.replay], key=REPLAY_KEY)
                finally:
                    client.close()
                setups.append((started, time.perf_counter()))
                after = reference.round_trip(SETUP_PROBE_TRIPS)
                setup_trips.append((before + after) / 2)
                verdicts = [answer["verdict"] for answer in warm["answers"]]
                if verdicts != oracle.verdicts(None):
                    raise BenchError("warm-up verdicts disagree with the oracle")
                if index < SETUPS - 1:
                    server.stop()
            phase = _measure(reference, server, work, inputs, oracle, workload, seed,
                             seconds, trace, durable, report, bundle_path)
        finally:
            if server is not None:
                server.stop()
    if phase is not None:
        report.setup(setups, [REFERENCE_ROUND_TRIP_S / trip for trip in setup_trips])
        _end_to_end(report, phase)


def _measure(reference, server, work, inputs, oracle, workload, seed, seconds, trace,
             durable, report, bundle_path) -> Optional[Phase]:
    """The timed phase; returns it when untraced, for :func:`_end_to_end`."""
    writes = Writes()
    before_stats = _tenant_stats(server.port)
    phase = None
    if not trace:
        phase = _loop(reference, server.port, inputs, workload, seed, seconds, False, writes)
        _check(phase, oracle, writes, report)
        report.phase(phase.attempted, phase.failed, phase.errors)
        report.metric("peak_rss_mb", peak_rss_mb(server.proc.pid))
    else:
        # Untraced quarters on both sides of the traced half, so a drift
        # in the host's speed does not read as tracing overhead.
        port = server.port
        first = _loop(reference, port, inputs, workload, seed, seconds / 4, False, writes)
        metrics_before = _scrape(port)
        mid_stats = _tenant_stats(port)
        traced = _loop(reference, port, inputs, workload, seed + 1, seconds / 2, True, writes)
        metrics_after = _scrape(port)
        after_stats = _tenant_stats(port)
        last = _loop(reference, port, inputs, workload, seed + 2, seconds / 4, False, writes)
        for phase in (first, traced, last):
            _check(phase, oracle, writes, report)
            report.phase(phase.attempted, phase.failed, phase.errors)
        plain = Phase(
            seconds=first.seconds + last.seconds,
            attempted=first.attempted + last.attempted,
            failed=first.failed + last.failed,
            samples=first.samples + last.samples,
        )
        _layers(report, inputs, plain, traced, metrics_before, metrics_after,
                mid_stats, after_stats, workload, seed)
        if durable:
            report.metric("wal.bytes_per_write", _bytes_per_record(work))
    after = _tenant_stats(server.port)
    compiles = after["reach_compiles"] - before_stats["reach_compiles"]
    if not durable and compiles:
        report.wrong(f"{compiles} reach compile(s) during the hot-read phase")
    if durable:
        _durability(server, work, inputs, oracle, writes, report, bundle_path)
    return phase


def _tenant_stats(port: int) -> dict:
    with ServeClient(port=port) as client:
        return client.tenant_stats(TENANT)


def _end_to_end(report, phase: Phase) -> None:
    """Every end-to-end metric at the reference host's speed.

    Each latency is scaled by the host's speed in the second it ended
    (see :class:`~common.HostSpeed`), and each whole second's rate of
    completed operations, less the time the probes took, likewise;
    ``ops_per_s`` is the median over the seconds, each percentile is
    taken over the whole run's scaled latencies.
    """
    speed = HostSpeed(phase.started, [(at, trip) for at, trip, _w in phase.probes])
    report.record["host_speed_scale"] = speed.overall
    count = int(phase.seconds)
    if count < 1:
        raise BenchError("the run is shorter than one second")
    done = [0] * count
    busy = [1.0] * count
    for sample in phase.samples:
        second = speed.second(sample.done)
        if second < count:
            done[second] += 1
    for at, _cpu, wall in phase.probes:
        second = speed.second(at)
        if second < count:
            busy[second] -= wall
    rates = [done[second] / busy[second] / speed.scale(phase.started + second)
             for second in range(count)]
    report.metric("ops_per_s", median(rates), count,
                  measured=phase.completed / phase.seconds)
    for kind, unit, per_second_unit in (("read", "us", 1e6),
                                        ("write", "us", 1e6),
                                        ("batch", "ms", 1e3)):
        # The operation after a probe finds the CPU's caches holding the
        # reference service: its latency is the probe's, not the program's.
        samples = [s for s in phase.of(kind) if not s.after_probe]
        if not samples:
            raise BenchError(f"no {kind} completed")
        measured = [sample.seconds * per_second_unit for sample in samples]
        scaled = [value * speed.scale(sample.done)
                  for value, sample in zip(measured, samples)]
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            report.metric(f"{kind}_{label}_{unit}", percentile(scaled, q),
                          len(samples), measured=percentile(measured, q))


def _bytes_per_record(work: str) -> float:
    """Mean size of the records in the live server's WAL file."""
    state = os.path.join(work, f"state{SETUPS - 1}")
    for root, _dirs, files in os.walk(state):
        if "wal.jsonl" in files:
            with open(os.path.join(root, "wal.jsonl"), "rb") as fp:
                data = fp.read()
            return ratio(len(data), data.count(b"\n"))
    return 0.0


def _durability(server, work, inputs, oracle, writes, report, bundle_path) -> None:
    """SIGKILL, reboot from the same state dir, compare with history."""
    from repro.engine.session import ReasoningSession
    from repro.io import bundle_from_payload

    server.kill()
    started = time.perf_counter()
    reboot = _start(work, SETUPS - 1, bundle_path, durable=True)
    try:
        with ServeClient(port=reboot.port) as client:
            client.health()
            recovery = time.perf_counter() - started
            stats = client.tenant_stats(TENANT)
            probe = client.implies_all(TENANT, inputs.pool)
    finally:
        reboot.stop()
    schema, deps, _db = bundle_from_payload(inputs.bundle)
    session = ReasoningSession(schema, deps)
    for op, dep in writes.acked:
        (session.add if op == "add" else session.retract)([dep])
    if stats["premise_hash"] != session.premise_hash:
        report.wrong("rebooted premise_hash differs from the acknowledged history")
    expected = oracle.verdicts(live_toggle(inputs, len(writes.acked)))
    got = [answer["verdict"] for answer in probe["answers"]]
    if got != expected:
        report.wrong("rebooted server answers the probe pool wrongly")
    report.note(
        f"durability: {len(writes.acked)} acknowledged writes replayed "
        f"in-process, rebooted premise_hash {stats['premise_hash'][:12]}, "
        f"probe pool re-asked ({len(got)} answers), recovery {recovery:.3f} s"
    )
    report.metric("wal.recovery_s", recovery)


# -- the traced run ----------------------------------------------------------


def _spans(sample: Sample) -> dict[str, float]:
    """Span name -> summed duration (µs) of one traced request."""
    spans: dict[str, float] = {}
    for span in (sample.trace or {}).get("spans", []):
        spans[span["span"]] = spans.get(span["span"], 0.0) + span["duration_ms"] * 1e3
    return spans


def _layers(report, inputs, plain, traced, before, after, mid_stats,
            after_stats, workload, seed) -> None:
    write_spans(workload, seed, [
        {"kind": s.kind, "wall_us": s.seconds * 1e6, "trace": s.trace}
        for s in traced.samples[:RECORDED_REQUESTS]
    ], report)
    reads = [s for s in traced.of("read") if s.trace]
    writes = [s for s in traced.of("write") if s.trace]
    if not reads:
        raise BenchError("no traced reads recorded")
    totals = [s.trace["duration_ms"] * 1e3 for s in reads]
    walls = [s.seconds * 1e6 for s in reads]
    spans = [_spans(s) for s in reads]
    transport = [w - t for w, t in zip(walls, totals)]
    unspanned = [t - sum(sp.values()) for t, sp in zip(totals, spans)]
    parse = [sp.get("parse", 0.0) for sp in spans]
    decide = [sp["decide"] for sp in spans if "decide" in sp]
    waits = [sp["coalesce-wait"] for sp in spans if "coalesce-wait" in sp]
    report.metric("client.transport_us", median(transport), len(transport))
    report.metric("protocol.parse_us", median(parse), len(parse))
    report.metric("server.unspanned_us", median(unspanned), len(unspanned))
    report.metric("engine.decide_us", median(decide) if decide else 0.0, len(decide))
    report.metric("coalescer.wait_us", median(waits) if waits else 0.0, len(waits))
    request_count = _delta(before, after, 'repro_request_seconds_count{op="implies"}')
    request_sum = _delta(before, after, 'repro_request_seconds_sum{op="implies"}')
    report.metric("server.request_us", ratio(request_sum, request_count) * 1e6,
                  int(request_count))
    report.metric("coalescer.batch_size_mean", ratio(
        _delta(before, after, "repro_coalescer_batch_size_sum"),
        _delta(before, after, "repro_coalescer_batch_size_count"),
    ))
    report.metric("coalescer.dedup_ratio", ratio(
        _delta(before, after, "repro_coalescer_deduplicated"),
        _delta(before, after, "repro_coalescer_requests"),
    ))
    report.metric(
        "coalescer.barrier_flushes",
        after_stats["coalescer"]["barrier_flushes"]
        - mid_stats["coalescer"]["barrier_flushes"],
    )
    _reach(report, traced, before, after, after_stats)
    mutate = [sp["mutate"] for sp in map(_spans, writes) if "mutate" in sp]
    report.metric("registry.mutate_us", median(mutate) if mutate else 0.0, len(mutate))
    fsyncs = _delta(before, after, "repro_wal_fsync_seconds_count")
    report.metric("wal.fsync_us", ratio(
        _delta(before, after, "repro_wal_fsync_seconds_sum"), fsyncs) * 1e6,
        int(fsyncs))
    report.metric("wal.fsyncs_per_write", ratio(fsyncs, len(traced.of("write"))))
    report.metric("wal.snapshots", _delta(before, after, "repro_wal_snapshots"))
    _replays(report, inputs, traced)
    plain_rate = plain.completed / plain.seconds
    traced_rate = traced.completed / traced.seconds
    report.metric("obs.trace_overhead_frac", 1.0 - ratio(traced_rate, plain_rate))
    _decomposition(report, workload, plain, walls, transport, spans, unspanned)


def _reach(report, traced, before, after, after_stats) -> None:
    compiles = _delta(before, after, "repro_reach_compiles")
    answered = sum(len(s.answers) for s in traced.samples)
    writes = len(traced.of("write"))
    report.metric("reach.compiles", compiles)
    report.metric("reach.compile_us", ratio(
        _delta(before, after, "repro_reach_compile_seconds"), compiles) * 1e6)
    report.metric("reach.nodes", after_stats["reach_nodes"])
    report.metric("reach.answers_per_compile", answered / max(1.0, compiles))
    report.metric("reach.invalidations_per_write", ratio(
        _delta(before, after, "repro_reach_invalidations"), writes))
    hits = _delta(before, after, "repro_fd_closure_hits")
    misses = _delta(before, after, "repro_fd_closure_misses")
    report.metric("fd_closure.hit_rate", ratio(hits, hits + misses))
    report.metric("fd_closure.kernels_compiled",
                  _delta(before, after, "repro_fd_kernels_compiled"))
    runs = _delta(before, after, "repro_chase_runs")
    report.metric("chase.runs", runs)
    report.metric("chase.rounds", _delta(before, after, "repro_chase_rounds"))
    report.metric("chase.rows_scanned",
                  _delta(before, after, "repro_chase_rows_scanned"))
    report.metric("chase.us", 0.0)


def _requests(sent: list[tuple[int, bytes]]) -> list[bytes]:
    """Reassemble whole requests: http.client sends the head and the
    body of one request as separate writes on its connection."""
    open_requests: dict[int, bytearray] = {}
    requests = []
    for conn, data in sent:
        if data.startswith((b"POST ", b"GET ")):
            if conn in open_requests:
                requests.append(bytes(open_requests[conn]))
            open_requests[conn] = bytearray(data)
        elif conn in open_requests:
            open_requests[conn] += data
    return requests  # each connection's last request may be incomplete


def _replays(report, inputs, traced) -> None:
    """Time the public protocol and io functions in-process on the
    recorded request bytes and on the answers the reads asked for."""
    from repro.engine.session import ReasoningSession
    from repro.io import bundle_from_json
    from repro.serve.protocol import json_response, read_request

    async def parse_all(blobs: list[bytes]) -> list[float]:
        times = []
        for blob in blobs:
            reader = asyncio.StreamReader()
            reader.feed_data(blob)
            reader.feed_eof()
            started = time.perf_counter()
            request = await read_request(reader)
            times.append(time.perf_counter() - started)
            if request is None:
                raise BenchError("a recorded request did not parse")
        return times

    blobs = _requests(traced.sent)
    parse_times = asyncio.run(parse_all(blobs))
    report.metric("protocol.read_request_us", median(parse_times) * 1e6,
                  len(parse_times))
    text = json.dumps(inputs.bundle)
    parse_s, build_s = [], []
    for _ in range(5):
        started = time.perf_counter()
        schema, deps, _db = bundle_from_json(text)
        parsed = time.perf_counter()
        session = ReasoningSession(schema, deps)
        parse_s.append(parsed - started)
        build_s.append(time.perf_counter() - parsed)
    report.metric("io.bundle_parse_us", median(parse_s) * 1e6, len(parse_s))
    report.metric("engine.session_build_us", median(build_s) * 1e6, len(build_s))
    answers = [
        session.implies(inputs.pool[index])
        for sample in traced.of("read")[:RECORDED_REQUESTS]
        for index, *_rest in sample.answers
    ]
    encode = []
    for answer in answers:
        started = time.perf_counter()
        json_response(200, answer.to_json())
        encode.append(time.perf_counter() - started)
    report.metric("protocol.json_response_us", median(encode) * 1e6, len(encode))


def _decomposition(report, workload, plain, walls, transport, spans, unspanned) -> None:
    """Where a served read's client wall time goes, layer by layer.

    The layers' means add up to the traced reads' mean wall time; each
    layer's share of that is applied to the untraced ``read_p50_us``.
    """
    read_p50 = median([s.seconds * 1e6 for s in plain.of("read")])
    wall = mean(walls)
    names = sorted({name for sp in spans for name in sp})
    rows = [("client.transport", mean(transport))]
    rows += [(f"span:{name}", mean([sp.get(name, 0.0) for sp in spans]))
             for name in names]
    rows.append(("server.unspanned", mean(unspanned)))
    report.note(
        f"{workload}: traced read wall mean {wall:.1f} us over {len(walls)} "
        f"reads; untraced read_p50_us {read_p50:.1f} "
        f"({len(plain.of('read'))} reads)"
    )
    report.note(f"  {'layer':<20} {'mean us':>9} {'share':>7} {'of read_p50_us':>15}")
    for name, value in rows + [("sum", sum(value for _n, value in rows))]:
        report.note(
            f"  {name:<20} {value:9.1f} {100 * value / wall:6.1f}% "
            f"{read_p50 * value / wall:12.1f} us"
        )
