"""The repository benchmark: one command, every metric, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_hot_reads --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload engine_cold --steadiness 5

Workloads:

* ``serve_hot_reads`` — ``repro serve`` in a subprocess, one warm
  tenant, single-target ``implies`` in a closed loop over one
  keep-alive connection (see :mod:`served`);
* ``serve_durable_writes`` — the same with ``--state-dir``: keyed
  ``add``/``retract`` toggles beside the reads, then a SIGKILL and a
  reboot that must recover the acknowledged history;
* ``engine_cold`` — library use in a child process: parse a bundle,
  build a fresh session, ask a batch, add, ask again (see :mod:`cold`).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
separate traced measurement and prints the per-layer metrics.  Every
metric is printed by name and unit with its sample count, followed by
the run record; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--steadiness N`` repeats
a workload with N seeds and prints each metric's median and quartiles.

The shared host's speed moves by half and more while a run goes on, so
every end-to-end timing is reported at a reference speed, measured by
fixed work timed on the program's CPU between its operations: round
trips to a reference HTTP service for the served workloads, a small
computation in the child for ``engine_cold`` (see
:class:`common.HostSpeed`).  The table prints each one as measured too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

from common import ROOT, SRC, BenchError, die_with_parent, median, ratio

WORKLOADS = ("serve_hot_reads", "serve_durable_writes", "engine_cold")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "client.transport_us": "us",
    "protocol.parse_us": "us",
    "protocol.read_request_us": "us",
    "protocol.json_response_us": "us",
    "server.request_us": "us",
    "server.unspanned_us": "us",
    "coalescer.wait_us": "us",
    "coalescer.batch_size_mean": "count",
    "coalescer.dedup_ratio": "ratio",
    "coalescer.barrier_flushes": "count",
    "engine.decide_us": "us",
    "reach.compiles": "count",
    "reach.compile_us": "us",
    "reach.nodes": "count",
    "reach.answers_per_compile": "count",
    "reach.invalidations_per_write": "ratio",
    "fd_closure.hit_rate": "ratio",
    "fd_closure.kernels_compiled": "count",
    "chase.runs": "count",
    "chase.rounds": "count",
    "chase.rows_scanned": "count",
    "chase.us": "us",
    "io.bundle_parse_us": "us",
    "engine.session_build_us": "us",
    "registry.mutate_us": "us",
    "wal.fsync_us": "us",
    "wal.fsyncs_per_write": "ratio",
    "wal.bytes_per_write": "bytes",
    "wal.snapshots": "count",
    "wal.recovery_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "failed_fraction": "ratio",
}


class Report:
    """Collects one run's metrics, failures, notes and run record.

    End-to-end timings are reported at the reference host's speed (see
    :class:`~common.HostSpeed`); each is printed beside its value as
    measured.  Per-layer metrics are as measured.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.trace = trace
        self.metrics: dict[str, float] = {}
        self.measured: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.record = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        }

    def metric(self, name: str, value: float, count: int = None,
               measured: float = None) -> None:
        self.metrics[name] = float(value)
        self.measured[name] = float(value if measured is None else measured)
        if count is not None:
            self.counts[name] = count

    def setup(self, spans: list[tuple[float, float]], scales: list[float]) -> None:
        """``setup_s`` from the set-ups' ``(start, end)`` clocks, each
        multiplied by its scale to the reference speed, timed beside it."""
        seconds = [end - start for start, end in spans]
        scaled = [(end - start) * scale for (start, end), scale in zip(spans, scales)]
        self.metric("setup_s", median(scaled), len(spans),
                    measured=median(seconds))

    def phase(self, attempted: int, failed: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        for error in errors:
            self.note(f"failure: {error}")

    def wrong(self, problem: str) -> None:
        self.problems.append(problem)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def emit(self) -> None:
        """Print every metric, the run record, then the result line."""
        self.metric("failed_fraction", ratio(self.failed, self.attempted))
        names = PER_LAYER if self.trace else END_TO_END
        missing = [name for name in names if name not in self.metrics]
        if not self.trace and missing:
            raise BenchError(f"end-to-end metrics not measured: {missing}")
        for name in missing:
            self.metric(name, 0.0)  # the layer does no work here
        units = {**END_TO_END, **PER_LAYER}
        print(f"{'metric':<30} {'reported':>16} {'unit':<6} {'as measured':>16}")
        for name, value in self.metrics.items():
            count = self.counts.get(name)
            samples = f"  (n={count})" if count is not None else ""
            print(f"{name:<30} {value:>16.6f} {units.get(name, ''):<6} "
                  f"{self.measured[name]:>16.6f}{samples}")
        for line in self.notes:
            print(f"# {line}")
        for problem in self.problems:
            print(f"# WRONG: {problem}")
        print(f"# run record: {json.dumps(self.record, sort_keys=True)}")
        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in names.items()
            },
        }))


def _run_once(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    report = Report(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.workload == "engine_cold":
        import cold as module
    else:
        import served as module
    module.run(args.workload, args.seed, args.seconds, bool(args.trace), report)
    report.emit()
    return 0


def _steadiness(args: argparse.Namespace) -> int:
    """Repeat one workload with seeds seed..seed+N-1; print spreads."""
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path, encoding="utf-8") as fp:
            spec = json.load(fp)
        bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}
    values: dict[str, list[float]] = {}
    measured: dict[str, list[float]] = {}
    for offset in range(args.steadiness):
        seed = args.seed + offset
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, cwd=ROOT, preexec_fn=die_with_parent,
        )
        try:
            out, err = child.communicate(timeout=600)
        finally:
            # Interrupted: let the run tear down its own processes.
            if child.poll() is None:
                child.terminate()
                child.wait()
        lines = out.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(out + err, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines:  # the table's "as measured" column
            cells = line.split()
            if len(cells) >= 4 and cells[0] in result["metrics"]:
                measured.setdefault(cells[0], []).append(float(cells[3]))
    print(f"{'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6} {'as measured':>12}")
    for name, series in values.items():
        mid, q1, q3, spread = _quartiles(series)
        as_measured = _quartiles(measured.get(name, series))[3]
        bound = bounds.get(name)
        print(f"{name:<30} {mid:>14.4f} {q1:>14.4f} {q3:>14.4f} "
              f"{spread:>8.3f} {'' if bound is None else bound:>6} "
              f"{as_measured:>12.3f}")
    return 0


def _quartiles(series: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, mid, q3 = statistics.quantiles(series, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness", type=int, default=0, metavar="N",
        help="repeat the workload with N consecutive seeds and print "
             "each metric's median and quartiles across the runs",
    )
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its processes and removes its
    # files: SIGTERM unwinds through every ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.steadiness:
        return _steadiness(args)
    try:
        return _run_once(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
