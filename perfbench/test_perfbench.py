"""The benchmark's own tests: inputs, bookkeeping, and tear-down.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  The tear-down
tests start the real program (a server, an engine child) and make sure
every exit path — an error mid-run, a SIGTERM to the benchmark — stops
it and removes the run's temporary directory.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

import cold
import common
import inputs
import run
import served

HERE = os.path.dirname(os.path.abspath(__file__))


def _leftovers() -> list[str]:
    if not os.path.isdir(common.WORK_ROOT):
        return []
    return os.listdir(common.WORK_ROOT)


def _processes_mentioning(text: str) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fp:
                cmdline = fp.read().decode("utf-8", "replace")
        except OSError:
            continue
        if text in cmdline:
            pids.append(int(entry))
    return pids


def test_inputs_depend_on_the_seed_only():
    first, again = inputs.served_inputs(), inputs.served_inputs()
    assert first == again

    def cold_targets(seed):
        return inputs._cold_bundle(random.Random(seed), "ind", 100).targets

    assert cold_targets(3) == cold_targets(3) != cold_targets(4)
    assert len(first.pool) == inputs.POOL_SOURCES * inputs.TARGETS_PER_SOURCE
    assert 450 <= len(first.base) <= 520
    assert not set(first.toggles) & set(first.base)


def test_toggle_plan_keeps_at_most_one_toggle_live():
    served_inputs = inputs.served_inputs()
    live = set()
    for index in range(12):
        op, dep = inputs.toggle_step(served_inputs, index)
        (live.add if op == "add" else live.remove)(dep)
        assert live == ({inputs.live_toggle(served_inputs, index + 1)} - {None})


def test_oracle_sees_the_hot_toggle():
    served_inputs = inputs.served_inputs()
    oracle = served.Oracle(served_inputs, hot=False)
    base = oracle.verdicts(None)
    hot = oracle.verdicts(served_inputs.toggles[0])
    assert all(hot[i] for i, implied in enumerate(base) if implied)
    assert sum(hot) >= sum(base)


def test_percentiles_are_nearest_rank():
    values = list(range(1, 101))
    assert common.percentile(values, 0.5) == 50
    assert common.percentile(values, 0.99) == 99
    assert common.percentile([7.0], 0.99) == 7.0


def test_host_speed_scales_each_second_by_its_own_probes():
    reference = common.REFERENCE_ROUND_TRIP_S
    speed = common.HostSpeed(100.0, [
        (100.2, reference), (100.7, reference),
        (101.5, 2 * reference), (101.6, 2 * reference), (101.9, 2 * reference),
    ])
    assert speed.scale(100.9) == 1.0
    assert speed.scale(101.0) == 0.5  # the host ran at half speed
    assert speed.scale(105.0) == 0.5  # no probe that second: the run's median
    with pytest.raises(common.BenchError):
        common.HostSpeed(0.0, [])


def test_cold_probe_is_the_median_of_its_neighbours():
    probes = [1.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]
    assert cold._smooth(probes, 0) == 1.0  # one slow timing does not count
    assert cold._smooth(probes, len(probes) - 2) == 5.0


def test_reference_service_answers_and_stops():
    with common.ReferenceService() as reference:
        assert reference.round_trip(3) > 0
        proc = reference.proc
        assert proc.poll() is None
    assert proc.poll() is not None


def test_requests_reassemble_head_and_body():
    sent = [(1, b"POST /a HTTP/1.1\r\n\r\n"), (2, b"GET /h HTTP/1.1\r\n\r\n"),
            (1, b"{}"), (1, b"POST /b HTTP/1.1\r\n\r\n"), (2, b"GET /x")]
    assert served._requests(sent) == [
        b"POST /a HTTP/1.1\r\n\r\n{}", b"GET /h HTTP/1.1\r\n\r\n",
    ]


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_served_run_stops_its_server_on_an_error(monkeypatch):
    started = []
    references = []
    real_start = common.ServerProcess.start
    real_enter = common.ReferenceService.__enter__

    def spy(self):
        started.append(self)
        return real_start(self)

    def spy_reference(self):
        references.append(self)
        return real_enter(self)

    def boom(*_args, **_kwargs):
        raise RuntimeError("mid-run failure")

    monkeypatch.setattr(common.ServerProcess, "start", spy)
    monkeypatch.setattr(common.ReferenceService, "__enter__", spy_reference)
    monkeypatch.setattr(served, "pin", lambda *_: None)  # keep pytest's CPUs
    monkeypatch.setattr(common, "pin", lambda *_: None)
    monkeypatch.setattr(served, "_measure", boom)
    monkeypatch.setattr(served, "SETUPS", 2)
    before = set(_leftovers())
    report = run.Report("serve_durable_writes", 1, 1.0, False)
    with pytest.raises(RuntimeError, match="mid-run failure"):
        served.run("serve_durable_writes", 1, 1.0, False, report)
    assert len(started) == 2
    assert all(server.proc.poll() is not None for server in started)
    assert [r.proc.poll() is not None for r in references] == [True]
    assert set(_leftovers()) <= before


def test_cold_run_stops_its_child_on_an_error(monkeypatch):
    children = []
    real_start = cold.Child.start

    def spy(self):
        children.append(self)
        return real_start(self)

    def boom(*_args, **_kwargs):
        raise RuntimeError("mid-run failure")

    tiny = inputs.ColdBundle(
        kind="fd", bundle={"schema": {"R": ["A", "B"]}, "dependencies": []},
        targets=["R: A -> B"], add="R: A -> B",
        expected=[False], expected_after=[True],
    )
    monkeypatch.setattr(cold.Child, "start", spy)
    monkeypatch.setattr(cold, "pin", lambda *_: None)  # keep pytest's CPUs
    monkeypatch.setattr(cold, "cold_inputs", lambda _seed: [tiny])
    monkeypatch.setattr(cold, "_phase", boom)
    monkeypatch.setattr(cold, "SETUPS", 2)
    before = set(_leftovers())
    report = run.Report("engine_cold", 1, 1.0, False)
    with pytest.raises(RuntimeError, match="mid-run failure"):
        cold.run("engine_cold", 1, 1.0, False, report)
    assert len(children) == 2
    assert all(child.proc.poll() is not None for child in children)
    assert set(_leftovers()) <= before


def test_sigterm_stops_the_server_and_removes_the_run_directory():
    before = set(_leftovers())
    bench = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", "serve_hot_reads", "--seed", "1", "--seconds", "60"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        run_dir = None
        while run_dir is None and time.monotonic() < deadline:
            fresh = set(_leftovers()) - before
            for name in fresh:
                path = os.path.join(common.WORK_ROOT, name)
                if os.path.exists(os.path.join(path, "server0.log")):
                    run_dir = path
            time.sleep(0.05)
        assert run_dir is not None, "the benchmark never started a server"
        while not _processes_mentioning(run_dir) and time.monotonic() < deadline:
            time.sleep(0.05)
        bench.send_signal(signal.SIGTERM)
        assert bench.wait(timeout=60) != 0
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    assert not os.path.exists(run_dir)
    assert _processes_mentioning(run_dir) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
