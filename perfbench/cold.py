"""``engine_cold``: the program as a library, every question cold.

A child process (:mod:`cold_child`) receives only the generated bundle
messages, one per line, and answers each from a fresh session.  The
bundles cycle through a fixed schedule of classes and sizes
(:data:`inputs.COLD_SCHEDULE`); every verdict is checked against the
naive oracle, before and after the bundle's ``add``.

The traced run asks the child for the session counters as well and
keeps the per-bundle spans (parse, build, batch, add, rebatch) in
memory; they are written to ``.perfbench-traces/`` at the end.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

from common import (
    CLIENT_CPU,
    PROBE_REFERENCE_S,
    ROOT,
    SERVER_CPU,
    BenchError,
    WorkDir,
    die_with_parent,
    median,
    peak_rss_mb,
    percentile,
    pin,
    program_env,
    ratio,
    write_spans,
)
from inputs import cold_inputs

SETUPS = 11
SMOOTH = 6
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cold_child.py")
START_TIMEOUT = 60.0


class Child:
    """The library-use child process, one request line at a time."""

    def __init__(self, log_path: str):
        self.log_path = log_path
        self.proc = None

    def start(self) -> "Child":
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, CHILD], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log, text=True,
                env=program_env(), cwd=ROOT, preexec_fn=die_with_parent,
            )
        try:
            pin(self.proc.pid, SERVER_CPU)
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], START_TIMEOUT
            )
            if not ready or self.proc.stdout.readline().strip() != "ready":
                raise BenchError("engine child did not start")
        except BaseException:
            self.stop()
            raise
        return self

    def ask(self, message: str) -> dict:
        self.proc.stdin.write(message + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("engine child exited mid-run")
        return json.loads(line)

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _phase(child, items, messages, seconds, report, traced):
    """Cycle the bundles for ``seconds``; check every verdict.

    The child times the host-speed probe between every two bundles;
    each bundle's ``probe`` is the median of the timings around it (see
    :func:`_smooth`).  Returns the whole cycles only — ``(seconds,
    answered, bundles)`` each — so every run weighs each bundle class
    the same.
    """
    cycles = []
    bundles = []
    attempted = failed = wrong = answered = 0
    errors = []
    started = cycle_start = time.perf_counter()
    deadline = started + seconds
    index = 0
    probes = [child.ask("probe")["probe"]]
    while time.perf_counter() < deadline:
        position = index % len(items)
        item = items[position]
        index += 1
        sent = time.perf_counter()
        reply = child.ask(messages[traced][position])
        reply["wall"] = time.perf_counter() - sent
        probes.append(child.ask("probe")["probe"])
        reply["pass"] = len(probes) - 2
        questions = 2 * len(item.targets)
        attempted += questions
        if "error" in reply:
            failed += questions
            errors.append(reply["error"])
        else:
            bad = sum(
                got != want
                for got, want in zip(
                    reply["first"] + reply["second"],
                    item.expected + item.expected_after,
                )
            )
            wrong += bad
            failed += bad + reply["degraded"]
            answered += questions - bad - reply["degraded"]
            reply.update(kind=item.kind, questions=questions, position=position)
            bundles.append(reply)
        if position == len(items) - 1:
            now = time.perf_counter()
            cycles.append((now - cycle_start, answered, bundles))
            cycle_start, answered, bundles = now, 0, []
    report.phase(attempted, failed, errors[:5])
    if wrong:
        report.wrong(f"{wrong} engine_cold verdict(s) disagree with the oracle")
    if not cycles:
        raise BenchError("the run did not complete one bundle cycle")
    for _s, _a, part in cycles:
        for bundle in part:
            bundle["probe"] = _smooth(probes, bundle["pass"])
    return cycles


def _smooth(probes: list[float], index: int) -> float:
    """The median of the ``2 * SMOOTH`` probe timings nearest the pass
    between ``probes[index]`` and ``probes[index + 1]``: one timing is
    short and noisy, the host's speed changes over seconds."""
    return median(probes[max(0, index + 1 - SMOOTH):index + 1 + SMOOTH])


def _typical(cycles, scale) -> list[dict]:
    """Each bundle of the cycle at its typical pass.

    Every cycle asks the same questions, so the passes of one bundle
    differ only in how much the shared host slowed them.  Each pass's
    times are multiplied by ``scale(pass)``, and each bundle's time, and
    each of its spans, is the median over the run's passes.
    """
    passes: dict[int, list[dict]] = {}
    for _s, _a, part in cycles:
        for bundle in part:
            passes.setdefault(bundle["position"], []).append(bundle)
    typical = []
    for position in sorted(passes):
        runs = passes[position]
        factors = [scale(b) for b in runs]
        typical.append({
            "questions": runs[0]["questions"],
            "seconds": median([b["seconds"] * f for b, f in zip(runs, factors)]),
            "spans": {
                name: median([b["spans"][name] * f for b, f in zip(runs, factors)])
                for name in runs[0]["spans"]
            },
        })
    return typical


def _as_measured(_bundle) -> float:
    return 1.0


def _at_reference(bundle) -> float:
    """Scales a pass to the reference host's speed (see
    :class:`~common.HostSpeed`), by the probe timed around it."""
    return PROBE_REFERENCE_S / bundle["probe"]


def _rate(cycles, scale=_as_measured) -> float:
    """Answered questions per second of the library's time over one
    cycle of typical passes."""
    answered = min(a for _s, a, _p in cycles)
    return answered / sum(bundle["seconds"] for bundle in _typical(cycles, scale))


def run(workload: str, seed: int, seconds: float, trace: bool, report) -> None:
    pin(0, CLIENT_CPU)
    items = cold_inputs(seed)
    plain = [item.message() for item in items]
    traced = [
        json.dumps({**json.loads(text), "trace": True}) for text in plain
    ]
    messages = {False: plain, True: traced}
    report.record["bundles"] = [f"{i.kind}:{len(i.bundle['dependencies'])}"
                                for i in items]
    report.record["loop"] = "closed, one bundle in flight"
    with WorkDir() as work:
        log = os.path.join(work, "child.log")
        setups, setup_probes = [], []
        child = None
        try:
            for index in range(SETUPS):
                started = time.perf_counter()
                child = Child(log).start()
                setups.append((started, time.perf_counter()))
                # The child started on the CPU it is pinned to: time the
                # probe there, just after.
                setup_probes.append(median(
                    [child.ask("probe")["probe"] for _ in range(3)]
                ))
                if index < SETUPS - 1:
                    child.stop()
            if not trace:
                cycles = _phase(child, items, messages, seconds, report, False)
                report.metric("peak_rss_mb", peak_rss_mb(child.proc.pid))
            else:
                _traced(child, items, messages, seconds, report, workload, seed)
        finally:
            if child is not None:
                child.stop()
    if not trace:
        probes = [b["probe"] for _s, _a, part in cycles for b in part]
        report.setup(setups, [PROBE_REFERENCE_S / p for p in setup_probes])
        report.record["host_speed_scale"] = PROBE_REFERENCE_S / median(probes)
        _end_to_end(report, cycles)


def _traced(child, items, messages, seconds, report, workload, seed) -> None:
    plain = _phase(child, items, messages, seconds / 2, report, False)
    cycles = _phase(child, items, messages, seconds / 2, report, True)
    bundles = [b for _s, _a, part in cycles for b in part]
    _layers(report, bundles, cycles[0][2])
    report.metric("obs.trace_overhead_frac",
                  1.0 - ratio(_rate(cycles), _rate(plain)))
    write_spans(workload, seed, [
        {key: b[key] for key in ("kind", "position", "wall", "seconds", "spans")}
        for b in bundles
    ], report)


def _end_to_end(report, cycles) -> None:
    """Every metric over one cycle of typical passes, each pass scaled
    to the reference host's speed.

    A write is a mutation taking effect: the ``add`` and the batch asked
    again under the new premises.  The ``add`` alone takes tens of
    microseconds, too little for its slowest bundle to read the same
    from one run to the next.
    """
    def series(typical):
        return {
            # One sample per question: its batch's time over the batch size.
            "read_{}_us": [
                b["spans"][name] * 1e6 / (b["questions"] // 2)
                for b in typical for name in ("batch", "rebatch")
                for _question in range(b["questions"] // 2)
            ],
            "write_{}_us": [
                (b["spans"]["add"] + b["spans"]["rebatch"]) * 1e6 for b in typical
            ],
            "batch_{}_ms": [b["seconds"] * 1e3 for b in typical],
        }

    scaled = series(_typical(cycles, _at_reference))
    measured = series(_typical(cycles, _as_measured))
    report.metric("ops_per_s", _rate(cycles, _at_reference),
                  sum(a for _s, a, _p in cycles), measured=_rate(cycles))
    for pattern, values in scaled.items():
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            report.metric(pattern.format(label), percentile(values, q),
                          len(values),
                          measured=percentile(measured[pattern], q))
    bundles = sum(len(part) for _s, _a, part in cycles)
    report.note(f"{len(cycles)} whole cycles, {bundles} bundles; each "
                f"bundle's median of {len(cycles)} passes")


def _layers(report, bundles, one_cycle) -> None:
    """Per-layer metrics; counters are summed over one bundle cycle."""
    total = {}
    for bundle in one_cycle:
        for key, value in bundle["stats"].items():
            if key != "engines":
                total[key] = total.get(key, 0) + value
    spans = {name: [b["spans"][name] * 1e6 for b in bundles]
             for name in bundles[0]["spans"]}
    report.metric("client.transport_us", median(
        [(b["wall"] - b["seconds"]) * 1e6 for b in bundles]), len(bundles))
    report.metric("io.bundle_parse_us", median(spans["parse"]), len(bundles))
    report.metric("engine.session_build_us", median(spans["build"]), len(bundles))
    report.metric("engine.decide_us", median([
        b["spans"][name] * 1e6 / (b["questions"] // 2)
        for b in bundles for name in ("batch", "rebatch")
    ]), 2 * len(bundles))
    compiles = total["reach_compiles"]
    ind_answers = sum(
        b["stats"]["engines"].get("corollary-3.2", 0) for b in one_cycle
    )
    report.metric("reach.compiles", compiles)
    report.metric("reach.compile_us",
                  ratio(total["reach_compile_seconds"], compiles) * 1e6)
    report.metric("reach.nodes", total["reach_nodes"])
    report.metric("reach.answers_per_compile", ind_answers / max(1, compiles))
    report.metric("reach.invalidations_per_write",
                  ratio(total["reach_invalidations"], len(one_cycle)))
    hits, misses = total["closure_hits"], total["closure_misses"]
    report.metric("fd_closure.hit_rate", ratio(hits, hits + misses))
    report.metric("fd_closure.kernels_compiled", total["fd_kernels_compiled"])
    report.metric("chase.runs", total["chase_runs"])
    report.metric("chase.rounds", total["chase_rounds"])
    report.metric("chase.rows_scanned", total["chase_rows_scanned"])
    chase_time = sum(
        b["spans"]["batch"] + b["spans"]["rebatch"]
        for b in bundles if b["stats"]["chase_runs"]
    )
    chase_runs = sum(b["stats"]["chase_runs"] for b in bundles)
    report.metric("chase.us", ratio(chase_time, chase_runs) * 1e6, chase_runs)
    for name, values in spans.items():
        report.note(f"span {name:<8} median {median(values):10.1f} us "
                    f"(n={len(values)})")
    self_time = [
        (b["seconds"] - sum(b["spans"].values())) * 1e6 for b in bundles
    ]
    report.note(f"span bundle   self time median {median(self_time):.1f} us")
