"""Shared plumbing: checkout paths, the server subprocess, statistics.

Everything the benchmark creates lives under ``.perfbench/`` in the
checkout and is removed again on every exit path: each run works in a
fresh temporary directory, and every process it starts is stopped and
waited for before that directory goes.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

BANNER = "repro-serve listening on "
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


class BenchError(RuntimeError):
    """The program misbehaved in a way no metric can absorb."""


def program_env() -> dict[str, str]:
    """Environment for a child that imports ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """``preexec_fn`` for every child: SIGTERM it when the benchmark
    dies, even by SIGKILL, so no program process outlives a run."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass  # not Linux: the explicit stop() paths still apply


class WorkDir:
    """A temporary directory under ``.perfbench/``, removed on exit."""

    def __enter__(self) -> str:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        return self.path

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still there


CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, SERVER_CPU = 0, 1
"""Slots in ``CPUS``.  The served program shares the client's CPU: a
request then never waits for the other CPU to wake, which on a shared
host costs a varying and unmeasured amount.  The ``engine_cold`` child
runs on the second."""


def pin(pid: int, slot: int) -> None:
    """Keep ``pid`` on one CPU of the benchmark's set (when it has two
    or more)."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(pid, {CPUS[slot]})


PROBE_REFERENCE_S = 0.00015
"""One probe's time on an undisturbed CPU of a 2-vCPU x86-64 host under
CPython 3.11: the speed ``engine_cold``'s timings are scaled to."""

_PROBE_TEXT = json.dumps({
    "schema": {f"R{i}": [f"A{j}" for j in range(4)] for i in range(40)},
    "dependencies": [
        f"R{i}[A0,A1] <= R{(i * 7) % 40}[A2,A3]" for i in range(120)
    ],
})


def _probe() -> str:
    """Fixed work of the program's kind that runs none of its code:
    parse a JSON bundle, index dependencies by relation, walk the graph,
    serialize the index."""
    document = json.loads(_PROBE_TEXT)
    index: dict[str, list[str]] = {}
    for dependency in document["dependencies"]:
        left, _, right = dependency.partition(" <= ")
        index.setdefault(left.split("[")[0], []).append(right)
    seen, frontier = set(), ["R0"]
    while frontier:
        for right in index.get(frontier.pop(), ()):
            name = right.split("[")[0]
            if name not in seen:
                seen.add(name)
                frontier.append(name)
    return json.dumps(sorted(index.items()))


def time_probe(repeats: int) -> float:
    """CPU seconds per probe the calling thread spends on ``repeats``
    probes: time it waits for the CPU is not counted, time the host makes
    the CPU run slower is."""
    started = time.thread_time()
    for _ in range(repeats):
        _probe()
    return (time.thread_time() - started) / repeats


REFERENCE_ROUND_TRIP_S = 0.000375
"""One warm round trip to :mod:`reference_service` from a client on the
same undisturbed CPU of a 2-vCPU x86-64 host under CPython 3.11: the speed
the served workloads' timings are scaled to."""

class HostSpeed:
    """How fast the shared host ran, second by second.

    The host's speed moves by half and more, in bursts of seconds and
    over minutes, as other tenants come and go, and takes the program's
    timings with it.  The served workloads time round trips to the
    reference service on the CPU that runs the program, between its
    operations; ``scale(clock)`` brings a timing taken at ``clock`` to
    the reference host's speed: ``REFERENCE_ROUND_TRIP_S`` over the
    median round trip in that second of the run.
    """

    def __init__(self, origin: float, timings: list[tuple[float, float]]):
        if not timings:
            raise BenchError("the run timed no probe")
        self.origin = origin
        self.seconds: dict[int, list[float]] = {}
        for at, seconds in timings:
            self.seconds.setdefault(self.second(at), []).append(seconds)
        self.overall = REFERENCE_ROUND_TRIP_S / median([s for _a, s in timings])
        self._scales: dict[int, float] = {}

    def second(self, clock: float) -> int:
        return int(clock - self.origin)

    def scale(self, clock: float) -> float:
        second = self.second(clock)
        if second not in self._scales:
            probes = self.seconds.get(second)
            # A second without a probe: the run's median.
            self._scales[second] = (
                REFERENCE_ROUND_TRIP_S / median(probes) if probes else self.overall
            )
        return self._scales[second]


REFERENCE_SERVICE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "reference_service.py"
)


class ReferenceService:
    """:mod:`reference_service` as a child process on the client's CPU,
    with one keep-alive connection to it.

    ``round_trip(n)`` times ``n`` fixed requests and returns the wall
    seconds per round trip.  ``stop`` closes the connection and the
    child's standard input, which ends it, and waits for it (killing it
    if it has not ended within ``STOP_TIMEOUT``).
    """

    def __init__(self):
        self.proc: Optional[subprocess.Popen] = None
        self.conn = None
        self.sent = 0

    def __enter__(self) -> "ReferenceService":
        self.proc = subprocess.Popen(
            [sys.executable, REFERENCE_SERVICE], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ROOT, preexec_fn=die_with_parent,
        )
        try:
            pin(self.proc.pid, CLIENT_CPU)
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("listening on "):
                raise BenchError("the reference service did not start")
            port = int(line.rsplit(":", 1)[1])
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def round_trip(self, count: int) -> float:
        # One untimed trip first: the program's requests before it have
        # pushed the service out of the CPU's caches, and the program's
        # own requests run with theirs warm.
        self._ask()
        started = time.perf_counter()
        for _ in range(count):
            self._ask()
        return (time.perf_counter() - started) / count

    def _ask(self) -> None:
        self.sent += 1
        body = json.dumps({"target": "R1[A0] <= R2[A1]", "n": self.sent})
        self.conn.request("POST", "/answer", body,
                          {"Content-Type": "application/json"})
        reply = json.loads(self.conn.getresponse().read())
        if "verdict" not in reply:
            raise BenchError("the reference service answered no verdict")

    def stop(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """``python -m repro serve --port 0`` as a child process.

    The port comes from the ``listening on`` banner.  ``stop`` drains
    gracefully (SIGTERM) and falls back to SIGKILL; ``kill`` is the
    crash the durability check needs.  Either way the process has been
    waited for when the call returns.
    """

    def __init__(self, args: list[str], log_path: str):
        self.args = args
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> "ServerProcess":
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0", *self.args
        ]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=program_env(), cwd=ROOT,
                preexec_fn=die_with_parent,
            )
        try:
            pin(self.proc.pid, CLIENT_CPU)
            self.port = self._await_banner()
        except BaseException:
            self.stop()
            raise
        return self

    def _await_banner(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as fp:
                for line in fp:
                    if line.startswith(BANNER) and line.endswith("\n"):
                        return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.001)
        raise BenchError(
            f"server did not announce a port; log:\n{self.log_text()}"
        )

    def log_text(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fp:
            return fp.read()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.wait()

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()


TRACE_DIR = os.path.join(ROOT, ".perfbench-traces")


def write_spans(workload: str, seed: int, records: list, report) -> None:
    """Write a traced run's in-memory spans out once, at its end."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(records, fp)
    report.note(f"spans written to {os.path.relpath(path, ROOT)}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
