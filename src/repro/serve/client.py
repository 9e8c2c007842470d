"""A tiny blocking client for :mod:`repro.serve` — scripting and tests.

Built on :mod:`http.client` so it needs nothing outside the standard
library and works from synchronous code (shell scripts via ``repro
call``, pytest, examples).  One :class:`ServeClient` holds one
keep-alive connection and returns each route's decoded JSON payload.
Non-2xx responses raise :class:`~repro.serve.protocol.ServeError`
carrying the server's status and message, so callers see the same
exception type the server raised.

Transport failures — a stale keep-alive the server closed between
calls, a connection dropped mid-response, a refused connect while the
server restarts — are retried with capped exponential backoff plus
jitter (``retries`` attempts after the first, sleeping
``backoff_base * 2**attempt`` up to ``backoff_max``, each sleep
multiplied by a random jitter factor so a fleet of recovering clients
does not reconnect in lockstep).  HTTP *error responses* are never
retried: the server spoke, the answer stands.

The tenant routes are stated once, in :class:`TenantRoutes`, which
both clients inherit.  Retrying a mutation is only safe if it cannot
double-apply, so ``add`` and ``retract`` attach a generated UUID
idempotency ``key`` (or the caller's own) — the server records the
key's result in the tenant WAL, and a retry of an already-applied
mutation replays that result, even across a server crash and restart.

:class:`FailoverClient` serves the same routes over a replicated
deployment (see :mod:`repro.serve.replication`): given a list of
``host:port`` endpoints it discovers who leads by polling ``/health``
(the claimant with the highest ``term`` wins), spreads reads
round-robin across followers (falling back to the primary), sends
mutations and tenant creates and drops to the primary only, and
re-resolves on connection failure or a 421 redirect — resending the
same idempotency key, so the retry that lands on a freshly promoted
follower replays exactly-once instead of double-applying.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import uuid
from typing import Any, Callable, Optional

from repro.serve.protocol import ServeError, parse_endpoint

DEFAULT_TIMEOUT = 30.0
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_MAX = 2.0

_RETRYABLE = (http.client.HTTPException, ConnectionError, OSError)


class TenantRoutes:
    """The ten tenant routes, stated once for both clients.

    Each route builds its request and hands it to the client's
    ``_call(kind, method, path, payload)``.  ``kind`` is ``"read"``,
    which any replica may serve, or ``"primary"`` (a mutation, or a
    tenant create or drop).  The server enforces the same split, with a
    421 and its ``max_lag`` check.  Leaving a ``with`` block closes the
    client.
    """

    def __enter__(self):
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    # -- tenant lifecycle ----------------------------------------------------

    def tenants(self) -> list[str]:
        return self._call("read", "GET", "/tenants")["tenants"]

    def create_tenant(
        self,
        name: str,
        bundle: dict[str, Any],
        options: Optional[dict[str, int]] = None,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {"name": name, "bundle": bundle}
        if options is not None:
            payload["options"] = options
        return self._call("primary", "POST", "/tenants", payload)

    def tenant_stats(self, name: str) -> dict[str, Any]:
        return self._call("read", "GET", f"/tenants/{name}/stats")

    def drop_tenant(self, name: str) -> dict[str, Any]:
        return self._call("primary", "DELETE", f"/tenants/{name}")

    # -- tenant operations ---------------------------------------------------

    def implies(
        self,
        tenant: str,
        target: str,
        semantics: str = "unrestricted",
        deadline_ms: Optional[float] = None,
        max_lag: Optional[int] = None,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {"target": target, "semantics": semantics}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if max_lag is not None:
            payload["max_lag"] = max_lag
        return self._call(
            "read", "POST", f"/tenants/{tenant}/implies", payload
        )

    def implies_all(
        self,
        tenant: str,
        targets: list[str],
        semantics: str = "unrestricted",
        deadline_ms: Optional[float] = None,
        max_lag: Optional[int] = None,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {"targets": targets, "semantics": semantics}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if max_lag is not None:
            payload["max_lag"] = max_lag
        return self._call(
            "read", "POST", f"/tenants/{tenant}/implies_all", payload
        )

    def add(
        self,
        tenant: str,
        dependencies: list[str],
        key: Optional[str] = None,
    ) -> dict[str, Any]:
        # Pin the idempotency key before the retry loop: the attempt
        # that lands on a freshly promoted follower must replay, not
        # re-apply.
        payload = {
            "dependencies": dependencies,
            "key": key if key is not None else str(uuid.uuid4()),
        }
        return self._call(
            "primary", "POST", f"/tenants/{tenant}/add", payload
        )

    def retract(
        self,
        tenant: str,
        dependencies: list[str],
        key: Optional[str] = None,
    ) -> dict[str, Any]:
        payload = {
            "dependencies": dependencies,
            "key": key if key is not None else str(uuid.uuid4()),
        }
        return self._call(
            "primary", "POST", f"/tenants/{tenant}/retract", payload
        )

    def whatif(
        self,
        tenant: str,
        targets: list[str],
        add: Optional[list[str]] = None,
        retract: Optional[list[str]] = None,
        semantics: str = "unrestricted",
    ) -> dict[str, Any]:
        return self._call(
            "read", "POST", f"/tenants/{tenant}/whatif",
            {
                "targets": targets,
                "add": add or [],
                "retract": retract or [],
                "semantics": semantics,
            },
        )

    def check(self, tenant: str) -> dict[str, Any]:
        return self._call("read", "POST", f"/tenants/{tenant}/check", {})


class ServeClient(TenantRoutes):
    """Blocking JSON-over-HTTP client for a running reasoning server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_max: float = DEFAULT_BACKOFF_MAX,
        jitter: bool = True,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        # Client-side transport counters — never sent to the server;
        # ``repro call --json`` and tests read them off the object.
        self.requests_sent = 0
        self.retried = 0
        self.backoff_slept = 0.0
        self.last_call_seconds = 0.0
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport ---------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _backoff(self, attempt: int) -> float:
        """Sleep length before retry ``attempt`` (0-based).

        The first retry is near-immediate — the common case is a stale
        keep-alive socket, where reconnecting at once succeeds — and
        later ones back off exponentially to ``backoff_max`` with a
        0.5-1.0 jitter factor.
        """
        delay = min(self.backoff_base * (2 ** attempt), self.backoff_max)
        if self.jitter:
            delay *= 0.5 + 0.5 * self._rng.random()
        return delay

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        """One round trip; raises :class:`ServeError` on error payloads.

        Connection-level failures are retried ``self.retries`` times
        with exponential backoff; the last failure propagates.
        """
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        call_start = time.perf_counter()
        self.requests_sent += 1
        try:
            for attempt in range(self.retries + 1):
                conn = self._connection()
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    raw = response.read()
                    break
                except _RETRYABLE:
                    self.close()
                    if attempt >= self.retries:
                        raise
                    self.retried += 1
                    delay = self._backoff(attempt)
                    if delay > 0:
                        self.backoff_slept += delay
                        self._sleep(delay)
        finally:
            self.last_call_seconds = time.perf_counter() - call_start
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            raise ServeError(
                502, f"server sent non-JSON body ({response.status})"
            )
        if response.status >= 400:
            if isinstance(decoded, dict):
                message = decoded.get("error", raw.decode("utf-8", "replace"))
                extra = {
                    key: value
                    for key, value in decoded.items()
                    if key not in ("error", "status")
                }
            else:
                message, extra = str(decoded), None
            raise ServeError(response.status, message, extra=extra)
        if response.headers.get("Connection", "").lower() == "close":
            self.close()
        return decoded

    def transport_stats(self) -> dict[str, Any]:
        """Client-side transport counters (local, never server state)."""
        return {
            "requests_sent": self.requests_sent,
            "retried": self.retried,
            "backoff_slept": self.backoff_slept,
            "last_call_seconds": self.last_call_seconds,
        }

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    # -- server-level routes -----------------------------------------------

    def health(self) -> dict[str, Any]:
        return self.request("GET", "/health")

    def stats(self) -> dict[str, Any]:
        return self.request("GET", "/stats")

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain and exit (graceful, like SIGTERM)."""
        return self.request("POST", "/shutdown")

    def _call(self, kind: str, method: str, path: str, payload=None):
        """One node serves every route, whatever its kind."""
        return self.request(method, path, payload)


class FailoverClient(TenantRoutes):
    """The tenant routes over a replicated deployment.

    Holds one :class:`ServeClient` per known endpoint.  ``resolve``
    polls ``/health`` across the fleet and crowns the reachable node
    claiming ``role == "primary"`` with the highest ``term`` — the
    fencing rule guarantees at most one *legitimate* claimant per term,
    so the highest term is the current leader.  Reads rotate across
    followers and fall back to the primary; primary routes go to the
    primary, re-resolving (bounded by ``failover_timeout``) on a
    connection failure, a 421 redirect, or a 503 — which is exactly the
    window a failover opens.  ``max_lag``, when set, bounds every read
    the server lag-checks unless the call names its own.  Endpoints
    named by redirects or health payloads but absent from the
    constructor list are learned on the fly.
    """

    def __init__(
        self,
        endpoints: list[str],
        timeout: float = DEFAULT_TIMEOUT,
        failover_timeout: float = 30.0,
        poll_interval: float = 0.1,
        max_lag: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not endpoints:
            raise ValueError("FailoverClient needs at least one endpoint")
        self.endpoints = list(dict.fromkeys(str(e) for e in endpoints))
        for endpoint in self.endpoints:
            parse_endpoint(endpoint)
        self.timeout = timeout
        self.failover_timeout = failover_timeout
        self.poll_interval = poll_interval
        self.max_lag = max_lag
        self._sleep = sleep
        self._clients: dict[str, ServeClient] = {}
        self._primary: Optional[str] = None
        self._followers: list[str] = []
        self._read_rr = 0
        self.resolves = 0
        self.redirects = 0
        self.failed_reads = 0
        self.failover_slept = 0.0

    # -- plumbing ----------------------------------------------------------

    def _client(self, endpoint: str) -> ServeClient:
        client = self._clients.get(endpoint)
        if client is None:
            host, port = parse_endpoint(endpoint)
            client = ServeClient(host, port, timeout=self.timeout, retries=1)
            self._clients[endpoint] = client
        return client

    def _learn(self, endpoint: str) -> None:
        if endpoint not in self.endpoints:
            self.endpoints.append(endpoint)

    def resolve(self, force: bool = False) -> Optional[str]:
        """The current primary endpoint, or ``None`` if nobody leads."""
        if self._primary is not None and not force:
            return self._primary
        self.resolves += 1
        best: Optional[str] = None
        best_term = -1
        followers: list[str] = []
        for endpoint in list(self.endpoints):
            try:
                health = self._client(endpoint).health()
            except (ServeError, ValueError):
                continue
            except _RETRYABLE:
                self._client(endpoint).close()
                continue
            role = health.get("role", "primary")
            term = int(health.get("term", 0) or 0)
            claimed = health.get("primary")
            if isinstance(claimed, str) and claimed:
                self._learn(claimed)
            if role == "primary" and term > best_term:
                best, best_term = endpoint, term
            elif role == "follower":
                followers.append(endpoint)
        self._primary = best
        self._followers = followers
        return best

    def topology(self) -> dict[str, Any]:
        """The resolved cluster view (forces a fresh ``/health`` sweep)."""
        primary = self.resolve(force=True)
        return {
            "primary": primary,
            "followers": list(self._followers),
            "endpoints": list(self.endpoints),
        }

    def transport_stats(self) -> dict[str, Any]:
        """Fleet-wide transport counters: this client's routing state
        plus the per-endpoint clients' retry/backoff totals."""
        return {
            "resolves": self.resolves,
            "redirects": self.redirects,
            "failed_reads": self.failed_reads,
            "failover_slept": self.failover_slept,
            "requests_sent": sum(
                client.requests_sent for client in self._clients.values()
            ),
            "retried": sum(
                client.retried for client in self._clients.values()
            ),
            "backoff_slept": sum(
                client.backoff_slept for client in self._clients.values()
            ),
        }

    def close(self) -> None:
        for client in self._clients.values():
            client.close()

    # -- routing -----------------------------------------------------------

    def _on_primary(self, method: str, path: str, payload=None):
        """Send the request to the primary, chasing it through failover."""
        deadline = time.monotonic() + self.failover_timeout
        last: Optional[BaseException] = None
        while True:
            primary = self.resolve(force=self._primary is None)
            if primary is not None:
                client = self._client(primary)
                try:
                    return client.request(method, path, payload)
                except ServeError as exc:
                    if exc.status == 421:
                        self.redirects += 1
                        hint = exc.extra.get("primary")
                        if isinstance(hint, str) and hint:
                            self._learn(hint)
                        self._primary = None
                        last = exc
                    elif exc.status == 503:
                        self._primary = None
                        last = exc
                    else:
                        raise
                except _RETRYABLE as exc:
                    client.close()
                    self._primary = None
                    last = exc
            if time.monotonic() >= deadline:
                if isinstance(last, ServeError):
                    raise last
                raise ServeError(
                    503,
                    f"no primary accepted the request within "
                    f"{self.failover_timeout}s"
                    + (f" (last: {last})" if last is not None else ""),
                )
            self.failover_slept += self.poll_interval
            self._sleep(self.poll_interval)

    def _read_order(self) -> list[str]:
        self.resolve()
        order: list[str] = []
        if self._followers:
            start = self._read_rr % len(self._followers)
            order.extend(self._followers[start:] + self._followers[:start])
            self._read_rr += 1
        if self._primary is not None:
            order.append(self._primary)
        return order or list(self.endpoints)

    def _read(self, method: str, path: str, payload=None):
        """Send the request to followers first, primary as a last resort.

        A 503 (lag bound exceeded, draining) or 404 (tenant not
        bootstrapped on that follower yet) falls through to the next
        candidate; any other HTTP error is the real answer and raises.
        """
        last: Optional[BaseException] = None
        for endpoint in self._read_order():
            client = self._client(endpoint)
            try:
                return client.request(method, path, payload)
            except ServeError as exc:
                if exc.status in (404, 421, 503):
                    last = exc
                    continue
                raise
            except _RETRYABLE as exc:
                client.close()
                self._primary = None  # the topology may have shifted
                last = exc
        self.failed_reads += 1
        if isinstance(last, ServeError):
            raise last
        raise ServeError(
            503,
            "no replica answered the read"
            + (f" (last: {last})" if last is not None else ""),
        )

    def _call(self, kind: str, method: str, path: str, payload=None):
        """Reads go followers-first, bounded by ``max_lag`` unless the
        call set its own; the rest chase the primary."""
        if kind == "primary":
            return self._on_primary(method, path, payload)
        if payload is not None and self.max_lag is not None:
            payload.setdefault("max_lag", self.max_lag)
        return self._read(method, path, payload)
