"""Replication chaos: kill -9 the primary mid-burst, follower takes over.

The flagship robustness scenario for the replicated serving layer:

* a durable primary and a durable follower run as real subprocesses;
* a :class:`FailoverClient` drives a keyed add/retract toggle burst;
* the primary is SIGKILLed mid-burst (no drain, no flushes);
* the follower promotes within the heartbeat budget, the burst
  completes against it, and the final state is verdict-equivalent to
  an uninterrupted control session that applied every mutation exactly
  once — so nothing acknowledged was lost and nothing replayed double;
* a keyed retry of mutations acked on the *dead* primary replays
  idempotently on the promoted follower;
* a stale-term replication stream pushed at the promoted node is
  fenced with a 409, and a resurrected stale primary loses the
  client-side leader election to the higher term.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.io import bundle_from_payload
from repro.engine.session import ReasoningSession
from repro.serve import FailoverClient, ServeError

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
PROBES = [
    "MGR[NAME] <= PERSON[NAME]",
    "PERSON[NAME] <= MGR[NAME]",
    "MGR[DEPT] <= MGR[DEPT]",
]
TOGGLE_DEPS = [
    "PERSON[NAME] <= EMP[NAME]",
    "EMP[DEPT] <= MGR[DEPT]",
    "PERSON[NAME] <= MGR[NAME]",
]


def toggle_burst():
    """A keyed add/retract toggle sequence: every op is *effective* when
    applied exactly once in order, so a double-applied retry (or a lost
    acknowledged op) shifts the final version and premise hash."""
    ops = []
    for dep in TOGGLE_DEPS:
        ops.append(("add", dep))
    ops.append(("retract", TOGGLE_DEPS[0]))
    ops.append(("retract", TOGGLE_DEPS[1]))
    ops.append(("add", TOGGLE_DEPS[0]))
    ops.append(("add", TOGGLE_DEPS[1]))
    ops.append(("retract", TOGGLE_DEPS[2]))
    ops.append(("retract", TOGGLE_DEPS[0]))
    ops.append(("add", TOGGLE_DEPS[2]))
    ops.append(("add", TOGGLE_DEPS[0]))
    ops.append(("retract", TOGGLE_DEPS[1]))
    return [(kind, dep, f"burst-{index}") for index, (kind, dep)
            in enumerate(ops)]


def start_server(*args):
    """Launch ``repro serve`` and wait for its port."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
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


def kill_leftover(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def control_state(ops):
    """An uninterrupted session fed every mutation exactly once."""
    schema, dependencies, db = bundle_from_payload(BUNDLE)
    session = ReasoningSession(schema, dependencies, db=db)
    for kind, dep, _key in ops:
        if kind == "add":
            session.add([dep])
        else:
            session.retract([dep])
    return session


class TestKillNinePrimaryMidBurst:
    def test_failover_preserves_every_acknowledged_mutation(
        self, tmp_path, make_client
    ):
        ops = toggle_burst()
        kill_at = len(ops) // 2

        primary_proc, primary_port, _ = start_server(
            "--state-dir", str(tmp_path / "primary"),
        )
        follower_proc = None
        try:
            make_client(port=primary_port).create_tenant("app", BUNDLE)
            follower_proc, follower_port, _ = start_server(
                "--state-dir", str(tmp_path / "follower"),
                "--replica-of", f"127.0.0.1:{primary_port}",
                "--heartbeat", "0.1",
                "--failover-after", "3",
            )
            assert "following" in follower_proc.stdout.readline()
            fleet = FailoverClient(
                [f"127.0.0.1:{primary_port}", f"127.0.0.1:{follower_port}"],
                failover_timeout=30.0,
                poll_interval=0.05,
            )
            # Wait until the follower has the tenant, so mid-burst
            # records forward instead of queuing behind a bootstrap.
            deadline = time.monotonic() + 15
            reader = make_client(port=follower_port)
            while time.monotonic() < deadline:
                try:
                    if reader.tenant_stats("app"):
                        break
                except ServeError:
                    time.sleep(0.05)
            else:
                raise AssertionError("follower never bootstrapped 'app'")

            killed_at = None
            for index, (kind, dep, key) in enumerate(ops):
                if index == kill_at:
                    # SIGKILL: no drain, no flushes.
                    kill_leftover(primary_proc)
                    killed_at = time.monotonic()
                mutator = fleet.add if kind == "add" else fleet.retract
                result = mutator("app", [dep], key=key)
                assert "idempotent_replay" not in result, key
            failover_seconds = (
                time.monotonic() - killed_at if killed_at else None
            )
            # The post-kill mutations were answered by a promoted
            # follower, within a sane multiple of the heartbeat budget
            # (3 misses x (0.1s interval + 0.25s probe timeout), plus
            # promotion and client re-resolution).
            assert failover_seconds is not None and failover_seconds < 20

            health = make_client(port=follower_port).health()
            assert health["role"] == "primary"
            assert health["term"] == 1

            # Zero acknowledged-mutation loss + exactly-once: the final
            # state equals the uninterrupted control's, to the hash.
            control = control_state(ops)
            stats = make_client(port=follower_port).tenant_stats("app")
            assert stats["premise_hash"] == control.premise_hash
            assert stats["version"] == control.version
            for probe in PROBES:
                served = fleet.implies("app", probe)["verdict"]
                assert served == control.implies(probe).verdict, probe

            # Keyed retries — including ops acked by the *dead* primary
            # — replay on the new primary instead of double-applying.
            for kind, dep, key in (ops[0], ops[kill_at - 1], ops[-1]):
                mutator = fleet.add if kind == "add" else fleet.retract
                assert mutator("app", [dep], key=key).get(
                    "idempotent_replay") is True, key
            assert make_client(port=follower_port).tenant_stats(
                "app")["version"] == control.version

            # A stale primary's stream (term 0 < the promoted term 1)
            # is fenced, never applied.
            with pytest.raises(ServeError) as info:
                make_client(port=follower_port).request(
                    "POST", "/replication/apply",
                    {"term": 0, "primary": "127.0.0.1:1", "tenant": "app",
                     "records": [{"seq": 999, "term": 0, "patch": {}}]},
                )
            assert info.value.status == 409
            assert info.value.extra["fenced"] is True
            assert info.value.extra["term"] == 1

            # Resurrect the old primary from its state dir: it comes
            # back believing term 0, and the client-side election
            # prefers the higher-term claimant.
            primary_proc, primary_port2, _ = start_server(
                "--state-dir", str(tmp_path / "primary"),
            )
            fleet._learn(f"127.0.0.1:{primary_port2}")
            topology = fleet.topology()
            assert topology["primary"] == f"127.0.0.1:{follower_port}"
            fleet.close()
        finally:
            kill_leftover(primary_proc)
            if follower_proc is not None:
                kill_leftover(follower_proc)
