"""Primary/follower replication for the serving layer.

One node is the *primary*: it accepts mutations, appends them to each
tenant's log (a :class:`~repro.serve.wal.TenantLog`, durable with
``--state-dir``), and forwards every record to its registered
followers **before acknowledging the client** — so an acknowledged
mutation exists on every in-sync follower the moment the caller sees
its result.  Followers apply pushed and pulled records alike through
:meth:`~repro.serve.registry.Tenant.apply_replicated`, the exact
session path a local mutation takes, which keeps them
verdict-equivalent: same premises, same version arithmetic, same
compiled-artifact lifecycle.  Followers serve the read surface
(``implies`` / ``implies_all`` / ``whatif`` / ``check``) with a
reported replication lag and 421-redirect mutations to the primary.

The flow, per tenant::

    follower boot        GET  /replication/snapshot/N   (bundle @ seq S)
    catch-up             POST /replication/wal/N        {"after": S}
    steady state         POST /replication/apply        (pushed records)
    liveness             GET  /replication/heartbeat    (term + seqs)

Failover is explicit and safe rather than automatic and clever: a
follower heartbeats the primary, declares it dead after
``failover_after`` consecutive missed beats, and promotes itself only
when its log is fully applied through the last seq the primary
advertised.  Promotion bumps the node *term* (persisted before use —
see the fencing rule in :mod:`repro.serve.wal`), and every replicated
envelope carries its sender's term, so a resurrected old primary's
stream is refused with a 409 naming the fencing term; the stale
primary steps down to a read-only ``fenced`` role.  Leader *election*
among multiple candidate followers is deliberately out of scope: in a
multi-follower topology exactly one follower should run with
``failover_after > 0`` (the rest pass ``--failover-after 0``), and the
term fence makes a wrong promotion safe, not silently divergent.

Durability semantics under partial failure: a follower the primary
cannot reach is marked lagging and *skipped* — the mutation is still
acknowledged on local durability alone (availability over cross-node
redundancy), and the degradation is visible in ``/stats``.  The
skipped follower heals itself by pulling the WAL tail (or
re-bootstrapping from a snapshot when the tail was truncated away) on
its next heartbeat.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Any, Optional

from repro.obs.tracing import Trace
from repro.serve.faults import (
    PARTITION_REPLICATION,
    REPLICATION_LAG,
)
from repro.serve.protocol import ServeError, is_count, parse_endpoint
from repro.serve.wal import check_records

log = logging.getLogger(__name__)

DEFAULT_HEARTBEAT = 1.0
"""Seconds between a follower's heartbeats to its primary."""

DEFAULT_FAILOVER_AFTER = 3
"""Consecutive missed heartbeats before a follower promotes (0 = never)."""

FORWARD_TIMEOUT = 5.0
"""Per-follower bound on a forwarded record's round trip."""

BOOTSTRAP_TIMEOUT = 30.0
"""Bound on a snapshot pull (bundles with databases can be large)."""


async def replication_request(
    endpoint: str,
    method: str,
    path: str,
    payload: Optional[dict[str, Any]] = None,
    timeout: float = FORWARD_TIMEOUT,
) -> tuple[int, dict[str, Any]]:
    """One JSON request/response round trip over a fresh connection.

    Deliberately connectionless (``Connection: close``): replication
    traffic is low-rate and a stale keep-alive socket to a dead peer is
    exactly the failure mode heartbeats exist to detect.  Raises
    :class:`OSError` / :class:`asyncio.TimeoutError` on network
    failure — a reply cut short or unparsable (bad ``Content-Length``,
    non-JSON body) is a :class:`ConnectionError`; HTTP-level refusals
    come back as ``(status, payload)``.
    """

    host, port = parse_endpoint(endpoint)

    async def round_trip() -> tuple[int, dict[str, Any]]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = b"" if payload is None else json.dumps(payload).encode()
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {endpoint}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split()
            if len(parts) < 2 or not parts[0].startswith("HTTP/"):
                raise ConnectionError(
                    f"malformed status line from {endpoint}: {status_line!r}"
                )
            status = int(parts[1])
            length = 0
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n"):
                    break
                if not raw:
                    raise ConnectionError(
                        f"{endpoint} closed the connection mid-headers"
                    )
                name, _, value = raw.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            data = await reader.readexactly(length) if length else b""
            decoded = json.loads(data) if data else {}
            if not isinstance(decoded, dict):
                decoded = {"payload": decoded}
            return status, decoded
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    try:
        return await asyncio.wait_for(round_trip(), timeout)
    except (EOFError, ValueError, RecursionError) as exc:
        # A cut-short body, a bad Content-Length or a non-JSON body.
        raise ConnectionError(f"bad reply from {endpoint}: {exc!r}") from exc


class FollowerHandle:
    """The primary's view of one registered follower."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint
        self.state = "healthy"  # healthy | syncing | lagging
        self.acked_seq: dict[str, int] = {}
        self.forwarded = 0
        self.last_error: Optional[str] = None

    def stats(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "endpoint": self.endpoint,
            "state": self.state,
            "forwarded": self.forwarded,
            "acked_seq": dict(self.acked_seq),
        }
        if self.last_error:
            payload["last_error"] = self.last_error
        return payload


class PrimaryReplicator:
    """The primary half: follower registration and record forwarding.

    Forwarding is synchronous with the mutation's acknowledgement: the
    server awaits :meth:`forward` before responding, so a 200 on
    ``add``/``retract`` means every follower in ``healthy`` state has
    applied (and, when durable, fsync'd) the record.  A follower that
    refuses with a seq gap is marked ``syncing`` — it heals by pulling
    — and one that cannot be reached is marked ``lagging``; neither
    blocks the mutation.
    """

    def __init__(self, server: Any):
        self.server = server
        self.followers: dict[str, FollowerHandle] = {}
        self.forwarded_records = 0
        self.forward_failures = 0
        self.fenced_by: Optional[dict[str, Any]] = None
        self.ship_seconds = server.metrics.histogram(
            "repro_replication_ship_seconds",
            "Per-follower replication forward round trip",
        )

    def register(self, endpoint: str) -> FollowerHandle:
        """Adopt (or refresh) a follower."""
        handle = self.followers.get(endpoint)
        if handle is None:
            handle = FollowerHandle(endpoint)
            self.followers[endpoint] = handle
        handle.state = "healthy"
        handle.last_error = None
        return handle

    async def forward(
        self,
        tenant_name: str,
        record: dict[str, Any],
        trace: Optional[Trace] = None,
    ) -> None:
        """Push one record to every follower, concurrently.

        A ``trace`` receives one ``ship`` span per follower (the
        record's trace id already rides *inside* the envelope, so the
        follower's durable copy links back to the originating request).
        """
        if not self.followers:
            return
        faults = self.server.faults
        if faults.trip(PARTITION_REPLICATION) or faults.trip(REPLICATION_LAG):
            for handle in self.followers.values():
                handle.state = "lagging"
                handle.last_error = "partitioned (fault injected)"
            self.forward_failures += len(self.followers)
            return
        await asyncio.gather(
            *(
                self._forward_one(handle, tenant_name, record, trace)
                for handle in list(self.followers.values())
            )
        )

    async def _forward_one(
        self,
        handle: FollowerHandle,
        tenant_name: str,
        record: dict[str, Any],
        trace: Optional[Trace] = None,
    ) -> None:
        envelope = {
            "term": self.server.registry.term,
            "primary": self.server.advertised_endpoint(),
            "tenant": tenant_name,
            "records": [record],
        }
        if "trace" in record:
            envelope["trace"] = record["trace"]
        ship_start = time.perf_counter()
        try:
            status, payload = await replication_request(
                handle.endpoint, "POST", "/replication/apply", envelope
            )
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            handle.state = "lagging"
            handle.last_error = f"{type(exc).__name__}: {exc}"
            self.forward_failures += 1
            self._record_ship(trace, handle, ship_start, ok=False)
            return
        self._record_ship(trace, handle, ship_start, ok=(status == 200))
        acked, term = payload.get("seq", record["seq"]), payload.get("term")
        if status == 200 and is_count(acked):
            handle.state = "healthy"
            handle.last_error = None
            handle.acked_seq[tenant_name] = acked
            handle.forwarded += 1
            self.forwarded_records += 1
            return
        if status != 200 and payload.get("fenced") and is_count(term):
            # The follower has seen a higher term: someone promoted past
            # us.  Step down — this node must stop acknowledging
            # mutations it can no longer claim to lead.
            self.fenced_by = payload
            leader = payload.get("primary")
            self.server.step_down(
                term, leader if isinstance(leader, str) else None
            )
            return
        if status == 200 or payload.get("fenced"):
            # A reply that does not decode says nothing about what the
            # follower applied: treat it as unreachable.
            handle.state = "lagging"
            handle.last_error = f"undecodable reply {status}: {payload!r}"
        else:
            handle.state = "syncing"
            handle.last_error = payload.get("error") or f"status {status}"
        self.forward_failures += 1

    def _record_ship(
        self,
        trace: Optional[Trace],
        handle: FollowerHandle,
        started: float,
        ok: bool,
    ) -> None:
        """One per-follower ``ship`` span plus the latency histogram."""
        elapsed = time.perf_counter() - started
        self.ship_seconds.observe(elapsed)
        if trace is not None:
            trace.add_span(
                "ship",
                elapsed,
                offset=started - trace.t0,
                follower=handle.endpoint,
                ok=ok,
            )

    def heartbeat_payload(self) -> dict[str, Any]:
        registry = self.server.registry
        return {
            "term": registry.term,
            "role": self.server.role,
            "primary": self.server.advertised_endpoint(),
            "tenants": {
                name: tenant.replicated_seq
                for name, tenant in registry.tenants.items()
            },
        }

    def stats(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "followers": [
                handle.stats() for handle in self.followers.values()
            ],
            "forwarded_records": self.forwarded_records,
            "forward_failures": self.forward_failures,
        }
        if self.fenced_by is not None:
            payload["fenced_by"] = dict(self.fenced_by)
        return payload


class FollowerReplicator:
    """The follower half: bootstrap, heartbeat, catch-up, promotion.

    Runs as one asyncio task on the server's loop (:meth:`run`), so
    every registry mutation it performs is serialized with request
    handling — no locks.  Pushed records arrive via the server's
    ``POST /replication/apply`` route and land in
    :func:`apply_envelope`; this task only handles the *pull* side
    (initial bootstrap and gap repair) plus liveness.
    """

    def __init__(
        self,
        server: Any,
        primary: str,
        heartbeat: float = DEFAULT_HEARTBEAT,
        failover_after: int = DEFAULT_FAILOVER_AFTER,
    ):
        if heartbeat <= 0:
            raise ValueError(f"heartbeat must be positive, got {heartbeat}")
        if failover_after < 0:
            raise ValueError(
                f"failover_after must be >= 0, got {failover_after}"
            )
        parse_endpoint(primary)  # fail fast on a malformed endpoint
        self.server = server
        self.primary = primary
        self.heartbeat = heartbeat
        self.failover_after = failover_after
        self.request_timeout = min(max(heartbeat, 0.25), FORWARD_TIMEOUT)
        self.missed = 0
        self.known_term = 0
        self.primary_seqs: dict[str, int] = {}
        self.registered = False
        self.heartbeats_ok = 0
        self.heartbeats_missed = 0
        self.pulled_records = 0
        self.bootstrapped_tenants = 0
        self.promoted = False
        self.promotion_refusals = 0
        self.last_error: Optional[str] = None

    # -- liveness loop -----------------------------------------------------

    async def run(self) -> None:
        """Heartbeat until promoted, cancelled, or the server drains."""
        self.known_term = max(self.known_term, self.server.registry.term)
        while self.server.role == "follower":
            await self._tick()
            if self.server.role != "follower" or self.server.draining:
                break
            await asyncio.sleep(self.heartbeat)

    async def _tick(self) -> None:
        try:
            status, payload = await replication_request(
                self.primary,
                "GET",
                "/replication/heartbeat",
                timeout=self.request_timeout,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            self._miss(f"{type(exc).__name__}: {exc}")
            return
        if status != 200:
            self._miss(payload.get("error") or f"heartbeat status {status}")
            return
        term, seqs = payload.get("term", 0), payload.get("tenants") or {}
        if not (is_count(term) and isinstance(seqs, dict)
                and all(map(is_count, seqs.values()))):
            self._miss(f"undecodable heartbeat: {payload!r}")
            return
        self.missed = 0
        self.heartbeats_ok += 1
        self.last_error = None
        if term > self.server.registry.term:
            self.server.registry.set_term(term)
        self.known_term = max(self.known_term, self.server.registry.term)
        self.primary_seqs = seqs
        if not self.registered:
            await self._register()
        await self._catch_up()

    def _miss(self, error: str) -> None:
        self.missed += 1
        self.heartbeats_missed += 1
        self.last_error = error
        # A re-registration is needed after any outage: the primary may
        # have restarted and forgotten us.
        self.registered = False
        if self.failover_after > 0 and self.missed >= self.failover_after:
            self.maybe_promote()

    # -- promotion ---------------------------------------------------------

    def maybe_promote(self) -> None:
        """Promote — but only from a fully-applied log.

        The last successful heartbeat told us the primary's seq per
        tenant; if any tenant here is behind that (or missing), the
        acknowledged history is not all present and promotion would
        silently drop mutations the primary confirmed.  Refuse and keep
        waiting — a lagging follower is not a candidate.
        """
        registry = self.server.registry
        for name, seq in self.primary_seqs.items():
            tenant = registry.tenants.get(name)
            applied = tenant.replicated_seq if tenant is not None else None
            if applied is None or applied < seq:
                self.promotion_refusals += 1
                self.last_error = (
                    f"refusing to promote: tenant {name!r} applied through "
                    f"{applied}, primary last advertised {seq}"
                )
                return
        self.promoted = True
        self.server.become_primary(self.known_term + 1)

    # -- registration / catch-up ------------------------------------------

    async def _register(self) -> None:
        try:
            status, payload = await replication_request(
                self.primary,
                "POST",
                "/replication/register",
                {"endpoint": self.server.advertised_endpoint()},
                timeout=self.request_timeout,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            self.last_error = f"register: {type(exc).__name__}: {exc}"
            return
        if status == 200:
            self.registered = True
        else:
            self.last_error = payload.get("error") or f"register {status}"

    async def _catch_up(self) -> None:
        """Repair every tenant that trails the primary's advertised seq.

        A pull or bootstrap that fails, whatever the primary sent, is
        noted in ``last_error`` and retried by the next heartbeat: no
        reply ends the replication task.
        """
        for name, primary_seq in self.primary_seqs.items():
            try:
                await self._repair(name, primary_seq)
            except (OSError, asyncio.TimeoutError) as exc:
                self.last_error = f"{name}: {type(exc).__name__}: {exc}"
                return
            except Exception as exc:  # noqa: BLE001 - no reply ends the task
                log.exception("catching up tenant %r failed", name)
                self.last_error = f"{name}: {type(exc).__name__}: {exc}"

    async def _repair(self, name: str, primary_seq: int) -> None:
        tenant = self.server.registry.tenants.get(name)
        if tenant is None:
            await self._bootstrap(name)
            return
        if tenant.replicated_seq >= primary_seq:
            return
        status, payload = await replication_request(
            self.primary,
            "POST",
            f"/replication/wal/{name}",
            {"after": tenant.replicated_seq},
            timeout=BOOTSTRAP_TIMEOUT,
        )
        if status == 409 and payload.get("resync"):
            # The tail we need was truncated away by a snapshot (or
            # the primary is non-durable and keeps no tail): start
            # over from a fresh snapshot.
            await self._bootstrap(name)
        elif status != 200:
            # A refused pull (a partition, say) is retried by the
            # next heartbeat; only a resync calls for the snapshot.
            self.last_error = payload.get("error") or f"wal pull {status}"
        else:
            self.pulled_records += tenant.apply_replicated(
                payload.get("records")
            )

    async def _bootstrap(self, name: str) -> None:
        status, payload = await replication_request(
            self.primary,
            "GET",
            f"/replication/snapshot/{name}",
            timeout=BOOTSTRAP_TIMEOUT,
        )
        if status != 200:
            self.last_error = payload.get("error") or f"bootstrap {status}"
            return
        self.server.registry.create_replica(name, payload)
        self.bootstrapped_tenants += 1

    # -- introspection -----------------------------------------------------

    def lag_of(self, name: str) -> int:
        """Seq delta behind the primary's last advertised position."""
        tenant = self.server.registry.tenants.get(name)
        applied = tenant.replicated_seq if tenant is not None else 0
        return max(0, self.primary_seqs.get(name, 0) - applied)

    def stats(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "primary": self.primary,
            "heartbeat": self.heartbeat,
            "failover_after": self.failover_after,
            "registered": self.registered,
            "missed": self.missed,
            "heartbeats_ok": self.heartbeats_ok,
            "heartbeats_missed": self.heartbeats_missed,
            "pulled_records": self.pulled_records,
            "bootstrapped_tenants": self.bootstrapped_tenants,
            "promoted": self.promoted,
            "lag": {
                name: self.lag_of(name) for name in self.primary_seqs
            },
        }
        if self.promotion_refusals:
            payload["promotion_refusals"] = self.promotion_refusals
        if self.last_error:
            payload["last_error"] = self.last_error
        return payload


def apply_envelope(server: Any, body: dict[str, Any]) -> dict[str, Any]:
    """Apply a pushed replication envelope on the receiving node.

    This is where the term fence lives, and it is evaluated on *every*
    node regardless of role — a promoted follower (now primary) must
    refuse its resurrected predecessor's stream, not re-follow it.

    * envelope term **below** ours: 409 ``{"fenced": true}`` naming our
      term and primary — the sender steps down.
    * envelope term **above** ours while we think we lead: the cluster
      moved past us; adopt the term, step down, and apply as a
      follower would.
    * role not follower at an equal term: also fenced (two nodes
      claiming the same term is exactly what the fence exists to stop).

    The envelope is checked whole first: a malformed ``term``,
    ``tenant`` or record is a 400, and nothing in it is applied.
    """
    registry = server.registry
    term, name = body.get("term", 0), body.get("tenant")
    if not is_count(term):
        raise ServeError(
            400, f"'term' must be a non-negative integer, got {term!r}"
        )
    if not isinstance(name, str) or not name:
        raise ServeError(400, "'tenant' must be a non-empty string")
    records = check_records(body.get("records"))
    sender = body.get("primary")

    def fenced() -> ServeError:
        return ServeError(
            409,
            f"replication stream term {term} is fenced by term "
            f"{registry.term}",
            extra={
                "fenced": True,
                "term": registry.term,
                "primary": server.advertised_endpoint(),
            },
        )

    if term < registry.term:
        raise fenced()
    if server.role != "follower":
        if term > registry.term:
            server.step_down(term, sender if isinstance(sender, str) else None)
        else:
            raise fenced()
    if term > registry.term:
        registry.set_term(term)
    tenant = registry.tenants.get(name)
    if tenant is None:
        raise ServeError(
            409,
            f"tenant {name!r} is not replicated here yet",
            extra={"resync": True},
        )
    applied = tenant.apply_replicated(records)
    return {
        "ok": True,
        "tenant": name,
        "seq": tenant.replicated_seq,
        "applied": applied,
    }
