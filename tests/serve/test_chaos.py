"""Crash-safety chaos tests: kill -9 a serving subprocess mid-mutation.

Each test drives a real ``repro serve --state-dir`` subprocess with a
fault point armed (see :mod:`repro.serve.faults`), lets it die via
``os._exit`` — the ``kill -9`` equivalent, no flushes, no atexit — and
then restarts the server over the same state directory to check the
recovery contract:

* a mutation whose WAL record was fsync'd (``crash-after-wal-append``)
  **survives** the crash, and a keyed retry of it deduplicates instead
  of double-applying;
* a mutation that died before its WAL record (``crash-before-wal-append``)
  is **lost** — never acknowledged, so losing it is correct — and the
  keyed retry applies it cleanly;
* a checkpoint that died before its snapshot's rename
  (``crash-in-snapshot``) loses nothing: the old snapshot plus the
  rolled-off WAL segment recover every acknowledged mutation;
* a response dropped mid-bytes (``drop-connection``) is healed by the
  client's retry/backoff loop without the caller noticing.

Verdict equivalence is checked against an uninterrupted in-process
control session fed the same mutations: same ``premise_hash``, same
probe verdicts.
"""

import http.client
import os
import subprocess
import sys

import pytest

from repro.io import bundle_from_payload
from repro.engine.session import ReasoningSession
from repro.serve import ServeClient
from repro.serve.faults import CRASH_EXIT_CODE

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

BUNDLE = {
    "schema": {"MGR": ["NAME", "DEPT"], "EMP": ["NAME", "DEPT"],
               "PERSON": ["NAME"]},
    "dependencies": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
                     "EMP[NAME] <= PERSON[NAME]"],
}

SETUP_DEP = "PERSON[NAME] <= EMP[NAME]"
CRASH_DEP = "EMP[DEPT] <= MGR[DEPT]"
PROBES = [
    "MGR[NAME] <= PERSON[NAME]",   # via the bundle's IND chain
    "PERSON[NAME] <= MGR[NAME]",   # not implied by the bundle alone
    "MGR[DEPT] <= MGR[DEPT]",      # reflexive, always true
]


def start_server(state_dir, *extra_args):
    """Launch ``repro serve --state-dir`` and wait for its port."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(state_dir), *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner = []
    for line in proc.stdout:
        banner.append(line)
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            return proc, port, "".join(banner)
    raise AssertionError(
        f"server exited before listening: {''.join(banner)}"
    )


def stop_server(proc, port):
    """Graceful drain; asserts a clean exit."""
    with ServeClient(port=port, retries=0) as client:
        client.shutdown()
    assert proc.wait(timeout=15) == 0


def kill_leftover(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def control_hash(mutations):
    """``premise_hash`` of an uninterrupted session fed ``mutations``."""
    schema, dependencies, db = bundle_from_payload(BUNDLE)
    session = ReasoningSession(schema, dependencies, db=db)
    for dep in mutations:
        session.add([dep])
    return session, session.premise_hash


class TestCrashAfterWalAppend:
    def test_acked_mutation_survives_and_keyed_retry_dedups(
        self, tmp_path, make_client
    ):
        state = tmp_path / "state"

        proc, port, _ = start_server(state)
        try:
            client = make_client(port=port, retries=0)
            client.create_tenant("app", BUNDLE)
            client.add("app", [SETUP_DEP], key="setup")
            stop_server(proc, port)
        finally:
            kill_leftover(proc)

        proc, port, _ = start_server(
            state, "--faults", "crash-after-wal-append:once"
        )
        try:
            crashing = make_client(port=port, retries=0)
            with pytest.raises(
                (ConnectionError, http.client.HTTPException, OSError)
            ):
                crashing.add("app", [CRASH_DEP], key="crashkey")
            assert proc.wait(timeout=15) == CRASH_EXIT_CODE
        finally:
            kill_leftover(proc)

        proc, port, banner = start_server(state)
        try:
            assert "recovered 1 tenant(s)" in banner
            assert "1 WAL record(s) replayed" in banner
            client = make_client(port=port)
            stats = client.tenant_stats("app")
            control, expected_hash = control_hash([SETUP_DEP, CRASH_DEP])
            # The fsync'd-but-unacknowledged mutation survived the crash.
            assert stats["premise_hash"] == expected_hash
            for probe in PROBES:
                served = client.implies("app", probe)["verdict"]
                assert served == control.implies(probe).verdict, probe
            # Exactly-once: retrying the keyed mutation across the crash
            # replays the recorded result instead of double-applying.
            version = stats["version"]
            retried = client.add("app", [CRASH_DEP], key="crashkey")
            assert retried.get("idempotent_replay") is True
            assert client.tenant_stats("app")["version"] == version
            assert client.tenant_stats("app")["premise_hash"] == expected_hash
            stop_server(proc, port)
        finally:
            kill_leftover(proc)


class TestCrashBeforeWalAppend:
    def test_unlogged_mutation_is_lost_then_retry_applies(
        self, tmp_path, make_client
    ):
        state = tmp_path / "state"

        proc, port, _ = start_server(state)
        try:
            client = make_client(port=port, retries=0)
            client.create_tenant("app", BUNDLE)
            stop_server(proc, port)
        finally:
            kill_leftover(proc)

        proc, port, _ = start_server(
            state, "--faults", "crash-before-wal-append:once"
        )
        try:
            crashing = make_client(port=port, retries=0)
            with pytest.raises(
                (ConnectionError, http.client.HTTPException, OSError)
            ):
                crashing.add("app", [CRASH_DEP], key="crashkey")
            assert proc.wait(timeout=15) == CRASH_EXIT_CODE
        finally:
            kill_leftover(proc)

        proc, port, banner = start_server(state)
        try:
            assert "recovered 1 tenant(s)" in banner
            client = make_client(port=port)
            _, created_hash = control_hash([])
            stats = client.tenant_stats("app")
            # Never logged, never acknowledged: correctly lost.
            assert stats["premise_hash"] == created_hash
            assert stats["version"] == 0
            # The keyed retry now applies for real (no replay flag).
            retried = client.add("app", [CRASH_DEP], key="crashkey")
            assert "idempotent_replay" not in retried
            assert retried["version"] == 1
            _, mutated_hash = control_hash([CRASH_DEP])
            assert client.tenant_stats("app")["premise_hash"] == mutated_hash
            stop_server(proc, port)
        finally:
            kill_leftover(proc)


class TestCrashInSnapshot:
    def test_rolled_segment_recovers_the_write_that_came_due(
        self, tmp_path, make_client
    ):
        state = tmp_path / "state"

        proc, port, _ = start_server(
            state, "--snapshot-every", "2",
            "--faults", "crash-in-snapshot:once",
        )
        try:
            client = make_client(port=port, retries=0)
            client.create_tenant("app", BUNDLE)
            client.add("app", [SETUP_DEP], key="setup")
            # The second write rolls the WAL before its reply; the
            # worker then dies before renaming the new snapshot, so the
            # reply may or may not arrive.
            try:
                client.add("app", [CRASH_DEP], key="crashkey")
            except (ConnectionError, http.client.HTTPException, OSError):
                pass
            assert proc.wait(timeout=15) == CRASH_EXIT_CODE
        finally:
            kill_leftover(proc)

        proc, port, banner = start_server(state)
        try:
            assert "recovered 1 tenant(s)" in banner
            assert "2 WAL record(s) replayed" in banner
            client = make_client(port=port)
            stats = client.tenant_stats("app")
            control, expected_hash = control_hash([SETUP_DEP, CRASH_DEP])
            assert stats["premise_hash"] == expected_hash
            for probe in PROBES:
                served = client.implies("app", probe)["verdict"]
                assert served == control.implies(probe).verdict, probe
            retried = client.add("app", [CRASH_DEP], key="crashkey")
            assert retried.get("idempotent_replay") is True
            assert client.tenant_stats("app")["premise_hash"] == expected_hash
            stop_server(proc, port)
        finally:
            kill_leftover(proc)


class TestDropConnection:
    def test_client_backoff_heals_dropped_response(
        self, tmp_path, make_client
    ):
        proc, port, _ = start_server(
            tmp_path / "state", "--faults", "drop-connection:once"
        )
        try:
            client = make_client(port=port, retries=3, backoff_base=0.01)
            # The very first response is cut off mid-bytes; the retry
            # loop reconnects and the caller sees only the clean answer.
            assert client.health()["ok"] is True
            assert client.retried >= 1
            client.create_tenant("app", BUNDLE)
            answer = client.implies("app", PROBES[0])
            assert answer["verdict"] is True
            assert client.stats()["dropped_connections"] == 1
            stop_server(proc, port)
        finally:
            kill_leftover(proc)
