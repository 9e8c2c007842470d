"""The asyncio multi-tenant reasoning server.

``repro serve`` puts a long-running HTTP/JSON front on the
:class:`~repro.engine.session.ReasoningSession` lifecycle: named
tenants (see :mod:`repro.serve.registry`), coalesced ``implies``
dispatch (see :mod:`repro.serve.coalescer`), fork-based ``whatif``
served off the event loop, and graceful drain on SIGTERM/SIGINT or
``POST /shutdown``.

Routes (all payloads JSON objects, except the text ``/metrics``)::

    GET    /health                       liveness + tenant count
    GET    /stats                        server/registry/tenant counters
    GET    /metrics                      Prometheus text (?format=json)
    GET    /debug/traces                 slowest recent traces (?limit=K)
    POST   /shutdown                     begin graceful drain, then exit
    GET    /tenants                      tenant names
    POST   /tenants                      {"name", "bundle": {...}} -> create
    GET    /tenants/N/stats              session stats (premise_hash, version, ...)
    DELETE /tenants/N                    drop the tenant
    POST   /tenants/N/implies            {"target", "semantics"?} -> Answer
    POST   /tenants/N/implies_all        {"targets": [...]} -> Answers
    POST   /tenants/N/add                {"dependencies": [...]} -> delta
    POST   /tenants/N/retract            {"dependencies": [...]} -> delta
    POST   /tenants/N/whatif             {"targets", "add"?, "retract"?} -> flips
    POST   /tenants/N/check              bundled database vs premises
    GET    /replication/heartbeat        term + role + per-tenant seqs
    POST   /replication/register         {"endpoint"} -> follower joins
    GET    /replication/snapshot/N       bootstrap bundle @ seq for tenant N
    POST   /replication/wal/N            {"after": S} -> WAL records past S
    POST   /replication/apply            pushed records (term-fenced)

A listed path asked with another method answers 405; any other path
answers 404.

Replication (see :mod:`repro.serve.replication`): a server started
with ``replica_of`` boots as a read-only *follower* — it bootstraps
every tenant from the primary, applies its pushed WAL records, serves
reads with a reported lag (optionally bounded per request by
``max_lag``), answers mutations with a 421 redirect naming the
primary, and promotes itself after ``failover_after`` missed
heartbeats.  A primary forwards each mutation's record to all
registered followers *before* acknowledging it.

Graceful shutdown contract: once :meth:`ReasoningServer.begin_shutdown`
fires (signal, endpoint, or API call) the listener closes, requests
whose request line has already arrived are served to completion (their
responses carry ``Connection: close``), idle keep-alive connections
are cancelled, and :meth:`run_until_shutdown` returns after the drain
— bounded by the ``grace`` timeout.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from typing import Any, Optional

from repro.engine.answer import Semantics
from repro.engine.deadline import Deadline
from repro.exceptions import ReproError
from repro.obs.tracing import Trace, TraceRing
from repro.serve.faults import (
    DROP_CONNECTION,
    NO_FAULTS,
    PARTITION_REPLICATION,
    REPLICATION_LAG,
    FaultInjector,
)
from repro.serve.protocol import (
    Request,
    ServeError,
    error_payload,
    is_count,
    json_response,
    parse_endpoint,
    read_request,
    text_response,
)
from repro.serve.registry import Tenant, TenantRegistry
from repro.serve.replication import (
    DEFAULT_FAILOVER_AFTER,
    DEFAULT_HEARTBEAT,
    FollowerReplicator,
    PrimaryReplicator,
    apply_envelope,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765
DEFAULT_GRACE = 10.0


def _semantics_of(body: dict[str, Any]) -> Semantics:
    raw = body.get("semantics", Semantics.UNRESTRICTED.value)
    try:
        return Semantics(raw)
    except ValueError:
        raise ServeError(
            400,
            f"unknown semantics {raw!r} (expected 'unrestricted' or "
            f"'finite')",
        )


def _string_list(body: dict[str, Any], key: str) -> list[str]:
    value = body.get(key, [])
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ServeError(400, f"{key!r} must be a list of DSL strings")
    return value


class ReasoningServer:
    """One listening socket over one :class:`TenantRegistry`."""

    def __init__(
        self,
        registry: Optional[TenantRegistry] = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        grace: float = DEFAULT_GRACE,
        default_deadline: Optional[float] = None,
        faults: FaultInjector = NO_FAULTS,
        replica_of: Optional[str] = None,
        heartbeat: float = DEFAULT_HEARTBEAT,
        failover_after: int = DEFAULT_FAILOVER_AFTER,
        default_max_lag: Optional[int] = None,
        advertise: Optional[str] = None,
    ):
        self.registry = registry if registry is not None else TenantRegistry()
        # The tenant registry owns the metrics; the server declares its
        # own instruments on them, and ``/stats`` reads its counters back.
        metrics = self.metrics = self.registry.metrics
        self.host = host
        self.port = port
        self.grace = grace
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got {default_deadline}"
            )
        self.default_deadline = default_deadline
        self.faults = faults
        if default_max_lag is not None and default_max_lag < 0:
            raise ValueError(
                f"default_max_lag must be >= 0, got {default_max_lag}"
            )
        self.default_max_lag = default_max_lag
        if advertise is not None:
            parse_endpoint(advertise)
        self.advertise = advertise
        # Replication role. A node booted with ``replica_of`` follows
        # that primary; everything else leads by default (a lone node
        # is trivially its own primary).  ``fenced`` is a terminal
        # read-only role a deposed primary steps down into.
        self.role = "follower" if replica_of else "primary"
        self.replica_of = replica_of
        self.primary_endpoint: Optional[str] = replica_of
        self.replication = PrimaryReplicator(self)
        self.follower: Optional[FollowerReplicator] = (
            FollowerReplicator(
                self, replica_of,
                heartbeat=heartbeat, failover_after=failover_after,
            )
            if replica_of
            else None
        )
        self._replication_task: Optional[asyncio.Task] = None
        self.traces = TraceRing()
        self.promotions = metrics.counter(
            "repro_promotions_total", "Follower-to-primary promotions"
        )
        self.stepped_down = metrics.counter(
            "repro_step_downs_total", "Primary step-downs after fencing"
        )
        self.redirected_mutations = metrics.counter(
            "repro_redirected_mutations_total",
            "Mutations 421-redirected to the primary",
        )
        self.lag_rejections = metrics.counter(
            "repro_lag_rejections_total",
            "Follower reads refused for exceeding max_lag",
        )
        self.requests_served = metrics.counter(
            "repro_requests_total", "HTTP requests answered"
        )
        self.degraded_answers = metrics.counter(
            "repro_degraded_answers_total",
            "Answers degraded by deadline or budget",
        )
        self.dropped_connections = metrics.counter(
            "repro_dropped_connections_total",
            "Connections dropped by fault injection",
        )
        # Keyed by tenant op: its keys are the ops the router accepts.
        self._op_latency = {
            op: metrics.histogram(
                "repro_request_seconds",
                "Tenant operation latency by op",
                op="mutate" if op in ("add", "retract") else op,
            )
            for op in (
                "implies", "implies_all", "add", "retract", "whatif", "check"
            )
        }
        metrics.register_collector(self._collect_metrics)
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        # Each open connection's task, and whether it is mid-request
        # (the drain waits for it) or idle (the drain cancels it).
        self._conn_states: dict[asyncio.Task, bool] = {}

    # -- metrics -----------------------------------------------------------

    def _collect_metrics(self) -> None:
        """Scrape-time gauges over the server's own state (the tenant
        registry collects its own)."""
        metrics = self.metrics
        registry = self.registry
        metrics.gauge("repro_connections", "Open connections").set(
            len(self._conn_states)
        )
        metrics.gauge(
            "repro_traces_recorded", "Traces recorded into the debug ring"
        ).set(self.traces.recorded)
        replication = self.replication
        metrics.gauge("repro_replication_forwarded_records").set(
            replication.forwarded_records
        )
        metrics.gauge("repro_replication_forward_failures").set(
            replication.forward_failures
        )
        for handle in replication.followers.values():
            lag = sum(
                max(
                    0,
                    tenant.replicated_seq
                    - handle.acked_seq.get(name, 0),
                )
                for name, tenant in registry.tenants.items()
            )
            metrics.gauge(
                "repro_follower_lag",
                "Record lag of one registered follower",
                follower=handle.endpoint,
            ).set(lag)
        if self.follower is not None:
            follower = self.follower
            metrics.gauge("repro_heartbeats_ok").set(follower.heartbeats_ok)
            metrics.gauge("repro_heartbeats_missed").set(
                follower.heartbeats_missed
            )
            metrics.gauge("repro_promotion_refusals").set(
                follower.promotion_refusals
            )
            for name in follower.primary_seqs:
                metrics.gauge(
                    "repro_replication_lag",
                    "Seq delta behind the primary",
                    tenant=name,
                ).set(follower.lag_of(name))

    def _deadline_of(self, body: dict[str, Any]) -> Optional[Deadline]:
        """The request's deadline: per-request ``deadline_ms`` wins,
        otherwise the server-wide ``--default-deadline`` (if any)."""
        raw = body.get("deadline_ms")
        if raw is None:
            if self.default_deadline is None:
                return None
            return Deadline(self.default_deadline)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
                or raw <= 0:
            raise ServeError(
                400, f"'deadline_ms' must be a positive number, got {raw!r}"
            )
        return Deadline.from_ms(raw)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and listen; ``port=0`` picks a free port (see ``.port``)."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.follower is not None:
            self._replication_task = asyncio.create_task(
                self.follower.run(), name="repro-replication"
            )

    # -- replication role transitions --------------------------------------

    def advertised_endpoint(self) -> str:
        """The address peers and redirected clients should dial."""
        return self.advertise or f"{self.host}:{self.port}"

    def become_primary(self, term: int) -> None:
        """Promote this follower: persist the new term, then lead.

        The term is saved *before* the role flips (see
        :meth:`TenantRegistry.set_term`), so a crash mid-promotion can
        never produce a leader still stamping the old term.
        """
        self.registry.set_term(term)
        self.role = "primary"
        self.primary_endpoint = self.advertised_endpoint()
        self.promotions.inc()

    def step_down(self, term: int, leader: Optional[str] = None) -> None:
        """A higher term fenced us: stop leading, keep serving reads."""
        if term > self.registry.term:
            self.registry.set_term(term)
        if self.role == "primary":
            self.role = "fenced"
            self.stepped_down.inc()
        if leader:
            self.primary_endpoint = leader

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_shutdown` has flipped the drain switch."""
        return self._shutdown is not None and self._shutdown.is_set()

    def begin_shutdown(self) -> None:
        """Flip the drain switch (idempotent, signal-handler safe)."""
        if self._shutdown is not None and not self._shutdown.is_set():
            self._shutdown.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (best effort: some platforms
        and non-main threads cannot register loop signal handlers)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.begin_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                pass

    async def run_until_shutdown(self) -> None:
        """Serve until :meth:`begin_shutdown`, then drain and return.

        A durable registry is checkpointed after the drain, so a
        *graceful* shutdown leaves empty WALs and the next boot replays
        nothing (only crashes pay tail replay).
        """
        assert self._shutdown is not None, "call start() first"
        await self._shutdown.wait()
        if self._replication_task is not None:
            self._replication_task.cancel()
            try:
                await self._replication_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._replication_task = None
        await self._drain()
        if self.registry.state_dir is not None:
            self.registry.checkpoint_all()
            self.registry.close()

    async def _drain(self) -> None:
        """Stop accepting, finish in-flight requests, close the rest."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle connections (blocked waiting for a next request line)
        # are cancelled; busy ones get up to `grace` seconds to finish
        # writing their response.
        for task, busy in list(self._conn_states.items()):
            if not busy:
                task.cancel()
        pending = [task for task in self._conn_states if not task.done()]
        if pending:
            _done, still_pending = await asyncio.wait(
                pending, timeout=self.grace
            )
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(*still_pending, return_exceptions=True)

    # -- the connection loop -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        busy = self._conn_states
        try:
            while True:
                busy[task] = False
                try:
                    request = await read_request(
                        reader, on_started=lambda: busy.__setitem__(task, True)
                    )
                except ServeError as exc:
                    writer.write(json_response(
                        exc.status, error_payload(exc.status, str(exc)),
                        close=True,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                closing = not request.keep_alive or self.draining
                if (
                    request.method == "GET"
                    and request.path == "/metrics"
                    and request.query.get("format") != "json"
                ):
                    # The Prometheus exposition is text, not JSON, so it
                    # bypasses the JSON dispatch pipeline entirely.
                    # Count before writing: once the client has read the
                    # response, the counters must already reflect it.
                    self.requests_served.inc()
                    response = text_response(
                        200, self.metrics.render_prometheus(), close=closing
                    )
                else:
                    trace = Trace(request.trace_id)
                    trace.add_span(
                        "parse", request.parse_seconds, offset=0.0,
                        method=request.method, path=request.path,
                    )
                    status, payload = await self._safe_dispatch(
                        request, trace
                    )
                    if (
                        request.query.get("trace")
                        and isinstance(payload, dict)
                    ):
                        payload["trace"] = trace.finish().to_json()
                    response = json_response(status, payload, close=closing)
                    if self.faults.trip(DROP_CONNECTION):
                        # What a dying peer looks like from the client
                        # side: the head promises a body, all but its
                        # last byte arrives, then the socket slams shut.
                        self.dropped_connections.inc()
                        response, closing = response[:-1], True
                    else:
                        # Count and record before writing: a client that
                        # has read this response must observe it in the
                        # counters and the trace ring (tests assert it).
                        self.requests_served.inc()
                        self.traces.record(trace)
                writer.write(response)
                await writer.drain()
                if closing:
                    break
        except (asyncio.CancelledError, ConnectionResetError):
            pass  # drain cancelled an idle connection, or the peer vanished
        finally:
            busy.pop(task, None)
            writer.close()

    async def _safe_dispatch(
        self, request: Request, trace: Trace
    ) -> tuple[int, dict[str, Any]]:
        try:
            delay = self.faults.latency_seconds()
            if delay > 0:
                if self.faults.latency_holds:
                    # ``latency:hold``: occupy the serving loop like a
                    # handler whose compute costs this much would.
                    time.sleep(delay)
                else:
                    await asyncio.sleep(delay)
            return 200, await self._dispatch(request, trace)
        except ServeError as exc:
            return exc.status, error_payload(
                exc.status, str(exc), extra=exc.extra
            )
        except ReproError as exc:
            # Parse errors, schema violations, budget overruns: the
            # caller's payload was at fault, not the server.
            return 400, error_payload(400, str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            return 500, error_payload(500, f"{type(exc).__name__}: {exc}")

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self, request: Request, trace: Trace
    ) -> dict[str, Any]:
        """The one router: ``[method, *path parts]`` matched once."""
        method = request.method
        match [method, *filter(None, request.path.split("/"))]:
            case ["POST", "tenants", name, op] if op in self._op_latency:
                tenant = self.registry.get(name)
                body = request.json()
                started = time.perf_counter()
                try:
                    return await self._tenant_op(tenant, op, body, trace)
                finally:
                    self._op_latency[op].observe(
                        time.perf_counter() - started
                    )
            case ["GET", "health"]:
                return {
                    "ok": True,
                    "tenants": len(self.registry.tenants),
                    "draining": self.draining,
                    "role": self.role,
                    "term": self.registry.term,
                    "primary": (
                        self.advertised_endpoint()
                        if self.role == "primary"
                        else self.primary_endpoint
                    ),
                }
            case ["GET", "stats"]:
                return self.stats()
            case ["GET", "metrics"]:
                # The text form short-circuits in ``_handle_connection``;
                # only ``?format=json`` reaches this route.
                return self.metrics.render_json()
            case ["GET", "debug", "traces"]:
                raw = request.query.get("limit", "10")
                try:
                    limit = int(raw)
                except ValueError:
                    raise ServeError(
                        400, f"'limit' must be an integer, got {raw!r}"
                    )
                if limit < 1:
                    raise ServeError(
                        400, f"'limit' must be >= 1, got {limit}"
                    )
                return self.traces.to_json(limit)
            case ["POST", "shutdown"]:
                self.begin_shutdown()
                return {"ok": True, "draining": True}
            case ["GET", "tenants"]:
                return {"tenants": sorted(self.registry.tenants)}
            case ["POST", "tenants"]:
                self._require_primary("tenant creation")
                body = request.json()
                name = body.get("name")
                if not isinstance(name, str) or not name:
                    raise ServeError(400, "'name' must be a non-empty string")
                tenant = self.registry.create_from_bundle(
                    name, body.get("bundle", {}), options=body.get("options")
                )
                session = tenant.session
                return {
                    "name": tenant.name,
                    "premise_hash": session.premise_hash,
                    "version": session.version,
                    "premises": len(session.dependencies),
                    "shared_artifacts": tenant.shared_artifacts,
                }
            case ["GET", "tenants", name, "stats"]:
                return self.registry.get(name).stats()
            case ["DELETE", "tenants", name]:
                self._require_primary("tenant drop")
                self.registry.drop(name)
                return {"ok": True, "dropped": name}
            case [_, "replication", *_] if self.faults.trip(
                PARTITION_REPLICATION
            ):
                raise ServeError(
                    503, "replication partitioned (fault injected)"
                )
            case [_, "replication", "snapshot" | "wal", *_] if (
                self.faults.trip(REPLICATION_LAG)
            ):
                raise ServeError(
                    503, "replication data plane partitioned (fault injected)"
                )
            case ["GET", "replication", "heartbeat"]:
                return self.replication.heartbeat_payload()
            case ["POST", "replication", "register"]:
                endpoint = request.json().get("endpoint")
                if not isinstance(endpoint, str) or not endpoint:
                    raise ServeError(
                        400, "'endpoint' must be a 'host:port' string"
                    )
                try:
                    parse_endpoint(endpoint)
                except ValueError as exc:
                    raise ServeError(400, str(exc))
                self.replication.register(endpoint)
                return {
                    "ok": True,
                    "term": self.registry.term,
                    "role": self.role,
                    "tenants": sorted(self.registry.tenants),
                }
            case ["GET", "replication", "snapshot", name]:
                return self.registry.replication_snapshot_of(name)
            case ["POST", "replication", "wal", name]:
                tenant = self.registry.get(name)
                after = request.json().get("after", 0)
                if not is_count(after):
                    raise ServeError(
                        400, f"'after' must be a non-negative integer, got "
                             f"{after!r}"
                    )
                records = tenant.store.read_from(after)
                if records is None:
                    raise ServeError(
                        409,
                        f"tenant {name!r} no longer keeps the records after "
                        f"seq {after}; resync from its snapshot",
                        extra={"resync": True},
                    )
                return {"records": records, "seq": tenant.replicated_seq}
            case ["POST", "replication", "apply"]:
                return apply_envelope(self, request.json())
            case (
                [_, "health" | "stats" | "metrics" | "shutdown" | "tenants"]
                | [_, "debug", "traces"]
                | [_, "tenants", _]
                | [_, "tenants", _, "stats" | "implies" | "implies_all"
                   | "add" | "retract" | "whatif" | "check"]
                | [_, "replication", "heartbeat" | "register" | "apply"]
                | [_, "replication", "snapshot" | "wal", _]
            ):
                raise ServeError(
                    405, f"{request.path} does not take {method}"
                )
        raise ServeError(404, f"no route for {method} {request.path}")

    def _require_primary(self, what: str) -> None:
        """421 Misdirected Request: mutations belong to the primary."""
        if self.role != "primary":
            self.redirected_mutations.inc()
            raise ServeError(
                421,
                f"{what} must go to the primary; this node is a "
                f"{self.role}",
                extra={"primary": self.primary_endpoint, "role": self.role},
            )

    def _check_lag(self, tenant: Tenant, body: dict[str, Any]) -> None:
        """Bounded-staleness gate for follower reads.

        ``max_lag`` (per request, else the server-wide default) is the
        largest acceptable seq delta behind the primary's last
        advertised position; a read that would exceed it gets a 503
        carrying the observed lag, so the caller can retry elsewhere
        or relax the bound.
        """
        raw = body.get("max_lag", None)
        if raw is None:
            raw = self.default_max_lag
        if raw is None:
            return
        if not is_count(raw):
            raise ServeError(
                400, f"'max_lag' must be a non-negative integer, got {raw!r}"
            )
        if self.role != "follower" or self.follower is None:
            return  # the primary (or a fenced ex-primary) is never stale
        lag = self.follower.lag_of(tenant.name)
        if lag > raw:
            self.lag_rejections.inc()
            raise ServeError(
                503,
                f"replication lag {lag} exceeds max_lag {raw} for tenant "
                f"{tenant.name!r}",
                extra={"lag": lag, "max_lag": raw},
            )

    async def _tenant_op(
        self,
        tenant: Tenant,
        op: str,
        body: dict[str, Any],
        trace: Trace,
    ) -> dict[str, Any]:
        """One handler per tenant op that :meth:`_dispatch` routes."""
        if op not in ("add", "retract"):
            self._check_lag(tenant, body)
        if op == "implies":
            target = body.get("target")
            if not isinstance(target, str) or not target:
                raise ServeError(400, "'target' must be a DSL string")
            answer = await tenant.coalescer.submit(
                target, _semantics_of(body),
                deadline=self._deadline_of(body), trace=trace,
            )
            if answer.degraded:
                self.degraded_answers.inc()
            return answer.to_json()
        if op == "implies_all":
            targets = _string_list(body, "targets")
            if not targets:
                raise ServeError(400, "'targets' must be non-empty")
            semantics = _semantics_of(body)
            deadline = self._deadline_of(body)
            futures = [
                tenant.coalescer.submit(
                    target, semantics, deadline=deadline, trace=trace
                )
                for target in targets
            ]
            answers = await asyncio.gather(*futures)
            degraded = sum(answer.degraded for answer in answers)
            self.degraded_answers.inc(degraded)
            return {
                "answers": [answer.to_json() for answer in answers],
                "implied": sum(
                    answer.verdict is True for answer in answers
                ),
                "unknown": sum(
                    answer.verdict is None for answer in answers
                ),
                "degraded": degraded,
                "total": len(answers),
            }
        if op in ("add", "retract"):
            self._require_primary(f"'{op}'")
            mutate_start = time.perf_counter()
            result = tenant.mutate(
                op, _string_list(body, "dependencies"), key=body.get("key"),
                trace=trace,
            )
            trace.add_span(
                "mutate", time.perf_counter() - mutate_start,
                offset=mutate_start - trace.t0, op=op,
            )
            # Forward before acknowledging: a keyed replay forwards
            # nothing (its record already shipped the first time).
            if (
                not result.get("idempotent_replay")
                and self.replication.followers
            ):
                await self.replication.forward(
                    tenant.name, tenant.last_record, trace=trace
                )
            return result
        if op == "whatif":
            with trace.span("whatif"):
                result = await tenant.whatif_async(
                    _string_list(body, "targets"),
                    add=_string_list(body, "add"),
                    retract=_string_list(body, "retract"),
                    semantics=_semantics_of(body),
                    deadline=self._deadline_of(body),
                )
            self.degraded_answers.inc(sum(
                flip[side]["degraded"]
                for flip in result["flips"] for side in ("before", "after")
            ))
            return result
        tenant.coalescer.barrier()  # op == "check"
        if tenant.session.db is None:
            raise ServeError(
                400, f"tenant {tenant.name!r} has no bundled database"
            )
        return tenant.session.check().to_json()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        payload = {
            "ok": True,
            "draining": self.draining,
            "requests_served": self.requests_served.value,
            "degraded_answers": self.degraded_answers.value,
            "default_deadline": self.default_deadline,
            "connections": len(self._conn_states),
            **self.registry.stats(),
            "tenant_stats": {
                name: tenant.stats()
                for name, tenant in self.registry.tenants.items()
            },
        }
        replication: dict[str, Any] = {
            "role": self.role,
            "term": self.registry.term,
            "primary": (
                self.advertised_endpoint()
                if self.role == "primary"
                else self.primary_endpoint
            ),
        }
        if self.replication.followers or self.replication.fenced_by:
            replication.update(self.replication.stats())
        if self.follower is not None:
            replication["follower"] = self.follower.stats()
        if self.promotions.value:
            replication["promotions"] = self.promotions.value
        if self.stepped_down.value:
            replication["stepped_down"] = self.stepped_down.value
        if self.redirected_mutations.value:
            replication["redirected_mutations"] = (
                self.redirected_mutations.value
            )
        if self.lag_rejections.value:
            replication["lag_rejections"] = self.lag_rejections.value
        if (
            self.role != "primary"
            or len(replication) > 3
            or self.follower is not None
        ):
            payload["replication"] = replication
        if self.faults:
            payload["faults"] = self.faults.stats()
        if self.dropped_connections.value:
            payload["dropped_connections"] = self.dropped_connections.value
        return payload


async def serve_main(server: ReasoningServer, announce: bool = True) -> int:
    """Start, announce, and run one server to completion (CLI body)."""
    await server.start()
    server.install_signal_handlers()
    if announce:
        print(
            f"repro-serve listening on {server.host}:{server.port}",
            flush=True,
        )
        if server.replica_of:
            print(
                f"repro-serve following {server.replica_of} "
                f"(heartbeat {server.follower.heartbeat}s, "
                f"failover after {server.follower.failover_after} misses)",
                flush=True,
            )
    await server.run_until_shutdown()
    return 0


class BackgroundServer:
    """A server on a daemon thread, for tests, examples, and scripting.

    Context-manager usage::

        with BackgroundServer() as bg:
            client = ServeClient(port=bg.port)
            ...

    The thread runs its own event loop; ``stop()`` (or context exit)
    triggers the same graceful drain as SIGTERM and joins the thread.
    """

    def __init__(
        self,
        registry: Optional[TenantRegistry] = None,
        port: int = 0,
        **options: Any,
    ):
        """``options`` are :class:`ReasoningServer`'s keyword options."""
        self.server = ReasoningServer(registry, port=port, **options)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("background server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"background server failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # noqa: BLE001 - reported to starter
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self.server.run_until_shutdown()

        asyncio.run(main())

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and join the server thread.

        Raises :class:`RuntimeError` if the thread is still alive after
        ``timeout`` — a silently leaked daemon thread keeps serving the
        port and poisons whatever the caller does next, so a failed
        join must be loud, never swallowed.
        """
        if self._loop is not None and self._thread is not None:
            if self._thread.is_alive():
                self._loop.call_soon_threadsafe(self.server.begin_shutdown)
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"background server thread failed to stop within "
                    f"{timeout}s; it is still serving on port {self.port}"
                )

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *_exc_info: Any) -> None:
        self.stop()
