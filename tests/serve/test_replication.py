"""In-process replication coverage: bootstrap, lag, fencing, failover.

Each test runs real servers — :class:`BackgroundServer` threads
speaking real HTTP on loopback — so the replication paths exercised
here (snapshot bootstrap, synchronous record forwarding, heartbeat
catch-up, term fencing, promotion) are byte-identical to what a
multi-process deployment runs; only the process boundary is missing,
and ``test_replication_chaos.py`` covers that with kill -9.
"""

import asyncio
import json
import os
import shutil
import threading
import time

import pytest

from repro.io import bundle_from_payload
from repro.engine.session import ReasoningSession
from repro.serve import (
    BackgroundServer,
    FailoverClient,
    FaultInjector,
    ReasoningServer,
    ServeError,
    TenantRegistry,
)
from repro.serve import replication
from repro.serve.faults import (
    DROP_CONNECTION,
    NO_FAULTS,
    PARTITION_REPLICATION,
    REPLICATION_LAG,
)
from repro.serve.replication import replication_request
from repro.serve.wal import WAL_FILE, StateDir, WalCorruption

BUNDLE = {
    "schema": {"MGR": ["NAME", "DEPT"], "EMP": ["NAME", "DEPT"],
               "PERSON": ["NAME"]},
    "dependencies": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
                     "EMP[NAME] <= PERSON[NAME]"],
}
EXTRA_DEP = "PERSON[NAME] <= EMP[NAME]"
PROBES = [
    "MGR[NAME] <= PERSON[NAME]",
    "PERSON[NAME] <= MGR[NAME]",
    "MGR[DEPT] <= MGR[DEPT]",
]


def wait_until(predicate, timeout=15.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def endpoint_of(bg):
    return f"127.0.0.1:{bg.port}"


def follower_of(primary_bg, failover_after=0, heartbeat=0.05, **kwargs):
    """An unstarted follower server (enter/``.start()`` to launch it)."""
    return BackgroundServer(
        replica_of=endpoint_of(primary_bg),
        heartbeat=heartbeat,
        failover_after=failover_after,
        **kwargs,
    )


def control_session(mutations=()):
    schema, dependencies, db = bundle_from_payload(BUNDLE)
    session = ReasoningSession(schema, dependencies, db=db)
    for dep in mutations:
        session.add([dep])
    return session


class TestBootstrapAndForward:
    def test_follower_bootstraps_and_serves_equivalent_reads(
        self, make_client
    ):
        with BackgroundServer() as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            client.add("app", [EXTRA_DEP])
            with follower_of(primary) as follower:
                reader = make_client(port=follower.port)
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                control = control_session([EXTRA_DEP])
                stats = reader.tenant_stats("app")
                assert stats["premise_hash"] == control.premise_hash
                assert stats["replicated_seq"] == 1
                for probe in PROBES:
                    served = reader.implies("app", probe)["verdict"]
                    assert served == control.implies(probe).verdict, probe

    def test_forward_is_synchronous_with_the_ack(self, make_client):
        """Once the follower has bootstrapped the tenant, a 200 on a
        mutation means the record is already applied there — no sleep
        needed."""
        with BackgroundServer() as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            with follower_of(primary) as follower:
                wait_until(
                    lambda: primary.server.replication.followers,
                    message="follower registration",
                )
                # Registration precedes the snapshot bootstrap: a forward
                # landing while the snapshot is in flight is refused.
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                client.add("app", [EXTRA_DEP])
                # No wait: the ack already waited for the follower.
                tenant = follower.server.registry.tenants["app"]
                assert tenant.replicated_seq == 1
                control = control_session([EXTRA_DEP])
                assert tenant.session.premise_hash == control.premise_hash
                stats = make_client(port=primary.port).stats()
                replication = stats["replication"]
                assert replication["forwarded_records"] == 1
                [handle] = replication["followers"]
                assert handle["state"] == "healthy"
                assert handle["acked_seq"] == {"app": 1}

    def test_mutations_on_a_follower_redirect_to_the_primary(
        self, make_client
    ):
        with BackgroundServer() as primary:
            make_client(port=primary.port).create_tenant("app", BUNDLE)
            with follower_of(primary) as follower:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                writer = make_client(port=follower.port)
                with pytest.raises(ServeError) as info:
                    writer.add("app", [EXTRA_DEP])
                assert info.value.status == 421
                assert info.value.extra["primary"] == endpoint_of(primary)
                with pytest.raises(ServeError) as info:
                    writer.create_tenant("other", BUNDLE)
                assert info.value.status == 421

    def test_keyed_replay_is_not_reforwarded(self, make_client):
        with BackgroundServer() as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            with follower_of(primary) as follower:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                client.add("app", [EXTRA_DEP], key="pinned")
                replayed = client.add("app", [EXTRA_DEP], key="pinned")
                assert replayed.get("idempotent_replay") is True
                assert primary.server.replication.forwarded_records == 1
                # The replicated key map makes the same replay work on
                # the follower's copy of history after a failover.
                tenant = follower.server.registry.tenants["app"]
                assert "pinned" in tenant.store.applied


BAD_REPLIES = {
    "short-body": b"HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n{\"tr",
    "bad-content-length":
        b"HTTP/1.1 200 OK\r\nContent-Length: twelve\r\n\r\n{}",
    "non-json-body": b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
    "deeply-nested-body": b"HTTP/1.1 200 OK\r\nContent-Length: 200000\r\n\r\n"
    + b"[" * 100_000 + b"]" * 100_000,
}


class TestBadReplies:
    """A reply cut short or unparsable is a network failure: every
    caller already counts an ``OSError`` as a missed beat or a lagging
    follower."""

    @pytest.mark.parametrize("reply", BAD_REPLIES.values(), ids=BAD_REPLIES)
    def test_bad_reply_raises_connection_error(self, reply):
        async def answer(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(reply)
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with pytest.raises(ConnectionError):
                    await replication_request(
                        f"127.0.0.1:{port}", "GET", "/replication/heartbeat"
                    )

        asyncio.run(scenario())

    def test_cut_short_heartbeat_is_a_missed_beat(self, make_client):
        with BackgroundServer() as primary:
            make_client(port=primary.port).create_tenant("app", BUNDLE)
            # The follower's first heartbeat is the request that drops.
            primary.server.faults = FaultInjector(f"{DROP_CONNECTION}:once")
            with follower_of(primary) as follower:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                assert primary.server.faults.fired[DROP_CONNECTION] == 1
                assert follower.server.follower.heartbeats_missed == 1

    def test_cut_short_forward_reply_still_acknowledges(self, make_client):
        with BackgroundServer() as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            with follower_of(primary) as follower:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                # The primary's forward is the request that drops.
                follower.server.faults = FaultInjector(
                    f"{DROP_CONNECTION}:once"
                )
                result = client.add("app", [EXTRA_DEP], key="cut")
                assert result["seq"] == 1
                assert "idempotent_replay" not in result
                [handle] = primary.server.replication.followers.values()
                assert handle.state == "lagging"
                replay = client.add("app", [EXTRA_DEP], key="cut")
                assert replay["idempotent_replay"] is True
                tenant = primary.server.registry.tenants["app"]
                control = control_session([EXTRA_DEP])
                assert tenant.session.premise_hash == control.premise_hash


    def test_undecodable_heartbeat_is_a_missed_beat(self, monkeypatch):
        """A heartbeat reply that does not decode counts as missed, and
        the follower keeps heartbeating."""
        beats = []

        async def reply(endpoint, method, path, payload=None, timeout=None):
            beats.append(path)
            return 200, {"term": "x", "role": "primary", "tenants": {}}

        monkeypatch.setattr(replication, "replication_request", reply)
        with BackgroundServer(
            replica_of="127.0.0.1:1", heartbeat=0.05, failover_after=0
        ) as follower:
            wait_until(lambda: len(beats) >= 3, timeout=5,
                       message="three heartbeats")
            replicator = follower.server.follower
            assert replicator.heartbeats_ok == 0
            assert replicator.heartbeats_missed >= 2
            assert "undecodable heartbeat" in replicator.last_error

    @pytest.mark.parametrize("seqs, reply, error", [
        ({"app": 1}, ("/replication/wal/app", {"records": [
            {"seq": "x", "patch": {"add": [EXTRA_DEP]}}]}), "'seq'"),
        ({"new": 3}, ("/replication/snapshot/new", None), "WalCorruption"),
    ], ids=["pulled-record", "bootstrap"])
    def test_refused_pull_or_bootstrap_sets_last_error(
        self, monkeypatch, seqs, reply, error
    ):
        """What a pull brings back may be refused; that is noted and
        retried by the next heartbeat, and ends nothing."""
        primary = TenantRegistry()
        primary.create_from_bundle("app", BUNDLE)
        snapshot = primary.replication_snapshot_of("app")
        follower = ReasoningServer(replica_of="127.0.0.1:1")
        follower.registry.create_replica("app", snapshot)
        replicator = follower.follower
        replicator.primary_seqs = seqs
        path, payload = reply
        if payload is None:  # a snapshot whose hash its bundle misses
            payload = {**snapshot, "name": "new", "premise_hash": "0" * 64}

        async def stub(endpoint, method, path_, payload_=None, timeout=None):
            return 200, payload

        monkeypatch.setattr(replication, "replication_request", stub)
        asyncio.run(replicator._catch_up())
        assert error in replicator.last_error
        assert sorted(follower.registry.tenants) == ["app"]
        assert follower.registry.tenants["app"].replicated_seq == 0

    @pytest.mark.parametrize("reply", [
        (200, {"ok": True, "seq": "x"}),
        (409, {"fenced": True, "term": "x"}),
    ], ids=["acked-seq", "fenced-term"])
    def test_undecodable_forward_reply_marks_the_follower_lagging(
        self, monkeypatch, make_client, reply
    ):
        async def stub(endpoint, method, path, payload=None, timeout=None):
            return reply

        with BackgroundServer() as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            client.request(
                "POST", "/replication/register", {"endpoint": "127.0.0.1:1"}
            )
            monkeypatch.setattr(replication, "replication_request", stub)
            assert client.add("app", [EXTRA_DEP])["seq"] == 1
            replicator = primary.server.replication
            [handle] = replicator.followers.values()
            assert handle.state == "lagging"
            assert replicator.forward_failures == 1
            assert primary.server.role == "primary"


FOLLOWER_BUNDLE = {
    "schema": {"R": ["A"], "S": ["A"]},
    "dependencies": ["R[A] <= S[A]"],
}
PATCH = {"add": ["S[A] <= R[A]"]}
BAD_ENVELOPES = {
    "term-string": {"term": "x", "records": [{"seq": 1, "patch": PATCH}]},
    "term-list": {"term": [1], "records": [{"seq": 1, "patch": PATCH}]},
    "seq-string": {"term": 0, "records": [{"seq": "x", "patch": PATCH}]},
    "patch-string": {"term": 0, "records": [{"seq": 1, "patch": "nope"}]},
    "record-term-string": {
        "term": 0, "records": [{"seq": 1, "term": "zz", "patch": PATCH}],
    },
}


def durable_registry(root):
    """A registry over a fresh state dir holding tenant ``t``."""
    registry = TenantRegistry(state_dir=StateDir(str(root)))
    registry.create_from_bundle("t", FOLLOWER_BUNDLE)
    return registry


def wal_of(root):
    return os.path.join(str(root), "tenants", "t", WAL_FILE)


class TestMalformedEnvelopes:
    @pytest.mark.parametrize(
        "envelope", BAD_ENVELOPES.values(), ids=BAD_ENVELOPES
    )
    def test_bad_envelope_is_400_and_changes_nothing(
        self, tmp_path, make_client, envelope
    ):
        state = tmp_path / "follower"
        registry = durable_registry(state)
        with BackgroundServer(
            registry=registry, replica_of="127.0.0.1:1", heartbeat=0.05,
            failover_after=0,
        ) as follower:
            tenant = registry.tenants["t"]

            def observed():
                with open(wal_of(state), "rb") as fp:
                    return (tenant.session.premise_hash,
                            tenant.replicated_seq, fp.read())

            before = observed()
            with pytest.raises(ServeError) as info:
                make_client(port=follower.port).request(
                    "POST", "/replication/apply",
                    {"primary": "127.0.0.1:1", "tenant": "t", **envelope},
                )
            assert info.value.status == 400
            assert observed() == before
            # What a crash would leave behind now must boot.
            shutil.copytree(state, tmp_path / "crashed")
        TenantRegistry(state_dir=StateDir(str(tmp_path / "crashed"))).close()

    @pytest.mark.parametrize("bad", [
        {"seq": "x", "term": 0, "patch": PATCH},
        {"seq": 1, "term": "zz", "patch": PATCH},
    ], ids=["seq", "term"])
    @pytest.mark.parametrize("followed", [False, True],
                             ids=["last", "interior"])
    def test_whole_wal_line_with_a_bad_field_is_corruption(
        self, tmp_path, bad, followed
    ):
        durable_registry(tmp_path).close()
        lines = [bad, {"seq": 2, "term": 0, "patch": PATCH}][:1 + followed]
        with open(wal_of(tmp_path), "a", encoding="utf-8") as fp:
            fp.writelines(json.dumps(line) + "\n" for line in lines)
        with pytest.raises(WalCorruption, match=r"wal\.jsonl:1: record"):
            TenantRegistry(state_dir=StateDir(str(tmp_path)))


class TestCatchUp:
    def test_only_a_resync_refusal_rebootstraps(self, monkeypatch):
        """A failed WAL pull waits for the next heartbeat; only a 409
        carrying ``resync`` pulls the snapshot again."""
        primary = TenantRegistry()
        primary.create_from_bundle("app", BUNDLE)
        behind = primary.replication_snapshot_of("app")
        primary.get("app").mutate("add", [EXTRA_DEP])
        current = primary.replication_snapshot_of("app")
        follower = ReasoningServer(replica_of="127.0.0.1:1")
        follower.registry.create_replica("app", behind)
        replicator = follower.follower
        replicator.primary_seqs = {"app": 1}
        replies = {"/replication/snapshot/app": (200, current)}

        async def stub(endpoint, method, path, payload=None, timeout=None):
            return replies[path]

        monkeypatch.setattr(replication, "replication_request", stub)
        refused = "replication data plane partitioned (fault injected)"
        replies["/replication/wal/app"] = (
            503, {"error": refused, "status": 503}
        )
        asyncio.run(replicator._catch_up())
        assert replicator.bootstrapped_tenants == 0
        assert replicator.last_error == refused
        assert replicator.lag_of("app") == 1

        replies["/replication/wal/app"] = (
            409, {"error": "resync", "status": 409, "resync": True}
        )
        asyncio.run(replicator._catch_up())
        assert replicator.bootstrapped_tenants == 1
        assert replicator.lag_of("app") == 0


class TestShutdown:
    def test_follower_stops_after_a_swallowed_cancel(self, monkeypatch):
        """A replication request that swallows the shutdown's cancel
        must not keep the follower heartbeating: it stops once the
        server drains."""
        entered = threading.Event()

        async def swallow_cancel(endpoint, method, path, payload=None,
                                 timeout=None):
            entered.set()
            try:
                await asyncio.sleep(0.5)
            except asyncio.CancelledError:
                pass
            return 503, {"error": "primary unreachable", "status": 503}

        monkeypatch.setattr(
            replication, "replication_request", swallow_cancel
        )
        follower = BackgroundServer(
            replica_of="127.0.0.1:1", heartbeat=0.05, failover_after=0
        ).start()
        assert entered.wait(timeout=5)
        follower.stop(timeout=5)


class TestLagBoundedReads:
    def test_max_lag_rejects_stale_follower_reads_then_heals(
        self, tmp_path, make_client
    ):
        registry_faults = FaultInjector("")
        state = StateDir(str(tmp_path / "primary"))
        registry = TenantRegistry(state_dir=state)
        with BackgroundServer(registry=registry,
                              faults=registry_faults) as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            with follower_of(primary) as follower:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                reader = make_client(port=follower.port)
                assert reader.implies(
                    "app", PROBES[2], max_lag=0
                )["verdict"] is True

                # Partition the data plane only: forwards and pulls
                # fail, heartbeats keep flowing, so the follower knows
                # exactly how far behind it is.
                primary.server.faults = FaultInjector(REPLICATION_LAG)
                client.add("app", [EXTRA_DEP])
                wait_until(
                    lambda: follower.server.follower.lag_of("app") == 1,
                    message="observed lag of 1",
                )
                with pytest.raises(ServeError) as info:
                    reader.implies("app", PROBES[2], max_lag=0)
                assert info.value.status == 503
                assert info.value.extra["lag"] == 1
                # An unbounded read still answers (stale but allowed).
                assert reader.implies("app", PROBES[2])["verdict"] is True

                # Heal the partition: the next heartbeat's catch-up
                # pulls the missing WAL tail and the bound is met again.
                primary.server.faults = NO_FAULTS
                wait_until(
                    lambda: follower.server.follower.lag_of("app") == 0,
                    message="lag healed",
                )
                assert reader.implies(
                    "app", PROBES[2], max_lag=0
                )["verdict"] is True
                assert follower.server.follower.pulled_records >= 1


class TestFailoverAndFencing:
    def test_promotion_fencing_and_stepdown(self, make_client):
        with BackgroundServer() as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            with follower_of(primary, failover_after=3) as follower:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                client.add("app", [EXTRA_DEP])

                # Full partition: the primary drops off the replication
                # network; the follower misses heartbeats and promotes.
                primary.server.faults = FaultInjector(PARTITION_REPLICATION)
                wait_until(
                    lambda: follower.server.role == "primary",
                    message="follower promotion",
                )
                assert follower.server.registry.term == 1
                health = make_client(port=follower.port).health()
                assert health["role"] == "primary"
                assert health["term"] == 1

                # The promoted node accepts mutations now.
                promoted_writer = make_client(port=follower.port)
                result = promoted_writer.add(
                    "app", ["EMP[DEPT] <= MGR[DEPT]"]
                )
                assert "idempotent_replay" not in result

                # The resurrected old primary's next forward is fenced
                # by the higher term, and it steps down on the spot.
                primary.server.faults = NO_FAULTS
                stale_writer = make_client(port=primary.port)
                stale_writer.add("app", ["PERSON[NAME] <= MGR[NAME]"])
                assert primary.server.role == "fenced"
                assert primary.server.registry.term == 1
                with pytest.raises(ServeError) as info:
                    stale_writer.add("app", [EXTRA_DEP], key="again")
                assert info.value.status == 421
                assert info.value.extra["primary"] == endpoint_of(follower)

    def test_promotion_refused_from_an_incomplete_log(self, make_client):
        with BackgroundServer() as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            with follower_of(primary, failover_after=2) as follower:
                wait_until(
                    lambda: primary.server.replication.followers,
                    message="follower registration",
                )
                # Data-plane partition first: the follower *knows* it is
                # behind when the control plane dies too.
                primary.server.faults = FaultInjector(REPLICATION_LAG)
                client.add("app", [EXTRA_DEP])
                wait_until(
                    lambda: follower.server.follower.lag_of("app") == 1,
                    message="observed lag of 1",
                )
                primary.server.faults = FaultInjector(
                    f"{PARTITION_REPLICATION},{REPLICATION_LAG}"
                )
                wait_until(
                    lambda: follower.server.follower.promotion_refusals > 0,
                    message="promotion refusal",
                )
                assert follower.server.role == "follower"
                assert follower.server.follower.promoted is False


class TestFailoverClient:
    def test_reads_route_to_followers_and_writes_to_primary(self, make_client):
        with BackgroundServer() as primary:
            setup = make_client(port=primary.port)
            setup.create_tenant("app", BUNDLE)
            with follower_of(primary) as follower:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                fc = FailoverClient(
                    [endpoint_of(primary), endpoint_of(follower)]
                )
                topology = fc.topology()
                assert topology["primary"] == endpoint_of(primary)
                assert topology["followers"] == [endpoint_of(follower)]

                served_before = follower.server.requests_served.value
                assert fc.implies("app", PROBES[2])["verdict"] is True
                assert follower.server.requests_served.value > served_before

                result = fc.add("app", [EXTRA_DEP])
                assert result["version"] == 1
                wait_until(
                    lambda: follower.server.registry.tenants[
                        "app"].replicated_seq == 1,
                    message="record replicated",
                )
                fc.close()

    def test_mutations_chase_the_primary_through_failover(self, make_client):
        with BackgroundServer() as primary:
            setup = make_client(port=primary.port)
            setup.create_tenant("app", BUNDLE)
            follower = follower_of(
                primary, failover_after=3, heartbeat=0.05
            ).start()
            try:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                fc = FailoverClient(
                    [endpoint_of(primary), endpoint_of(follower)],
                    failover_timeout=20.0,
                    poll_interval=0.05,
                )
                primary.stop()  # the primary vanishes mid-deployment
                result = fc.add("app", [EXTRA_DEP], key="burst")
                assert result["version"] == 1
                assert follower.server.role == "primary"
                # The pinned key replays exactly-once on the new primary.
                replay = fc.add("app", [EXTRA_DEP], key="burst")
                assert replay.get("idempotent_replay") is True
                control = control_session([EXTRA_DEP])
                assert fc.implies(
                    "app", PROBES[0]
                )["verdict"] == control.implies(PROBES[0]).verdict
                fc.close()
            finally:
                follower.stop()
