"""Named-tenant registry with a structural-hash artifact LRU.

A *tenant* is one named, long-lived
:class:`~repro.engine.session.ReasoningSession` plus its
:class:`~repro.serve.coalescer.Coalescer` — the unit the HTTP server
routes requests to.  The registry owns tenant lifecycle
(create-from-bundle, lookup, drop) and one serving-specific
optimization: tenants whose (schema, premise multiset) hash
identically — :attr:`ReasoningSession.premise_hash` — *share one set
of compiled artifacts* copy-on-write.  The first tenant with a given
hash compiles kernels, reach index, and closure memos; every later
structurally identical tenant adopts them via
:meth:`ReasoningSession.adopt_compiled_from` and starts hot.  The
sharing table is a small LRU keyed by the hash; a donor that has since
mutated (its live hash drifted off its key) is detected on lookup and
replaced rather than trusted.

This is the Hyrise-style "constraints as a served verdict source"
scenario: N microservices each registering the same schema's
dependency set cost one compilation, not N.
"""

from __future__ import annotations

import asyncio
import re
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.deps.base import Dependency
from repro.engine.answer import Semantics
from repro.engine.deadline import Deadline
from repro.engine.index import premise_hash_of
from repro.engine.session import ReasoningSession, flips_to_json
from repro.io import apply_patch, bundle_from_payload, bundle_to_payload
from repro.model.database import Database
from repro.model.schema import DatabaseSchema
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Trace
from repro.serve.coalescer import _BATCH_SIZE_BUCKETS, Coalescer
from repro.serve.protocol import ServeError
from repro.serve.wal import (
    DEFAULT_SNAPSHOT_EVERY,
    StateDir,
    TenantLog,
    WalCorruption,
    check_records,
)

DEFAULT_LRU_CAPACITY = 32

SESSION_OPTION_KEYS = ("max_nodes", "max_rounds", "max_tuples")
"""The engine budgets a tenant-create request may override."""

TENANT_NAME = re.compile(r"[A-Za-z0-9._~-]+")
"""Names a tenant may be created under: URL path characters that need
no percent-encoding, since the server routes on the raw request path."""

TENANT_GAUGES = {
    "repro_engine_queries": "queries",
    "repro_engine_reach_cache_hits": "reach_cache_hits",
    "repro_engine_reach_fallbacks": "reach_fallbacks",
    "repro_engine_degraded_answers": "degraded_answers",
    "repro_reach_compiles": "reach_compiles",
    "repro_reach_compile_seconds": "reach_compile_seconds",
    "repro_reach_extensions": "reach_extensions",
    "repro_reach_invalidations": "reach_invalidations",
    "repro_fd_closure_hits": "closure_hits",
    "repro_fd_closure_misses": "closure_misses",
    "repro_fd_kernels_compiled": "fd_kernels_compiled",
    "repro_chase_runs": "chase_runs",
    "repro_chase_rounds": "chase_rounds",
    "repro_chase_rows_scanned": "chase_rows_scanned",
    "repro_coalescer_requests": "coalescer.requests",
    "repro_coalescer_batches": "coalescer.batches",
    "repro_coalescer_unique_decides": "coalescer.unique_decides",
    "repro_coalescer_deduplicated": "coalescer.deduplicated",
    "repro_coalescer_degraded": "coalescer.degraded",
    "repro_wal_appends": "wal.appends",
    "repro_wal_snapshots": "wal.snapshots",
    "repro_replayed_mutations": "replayed_mutations",
}
"""Scrape-time gauges: each sums one ``Tenant.stats()`` entry (a dotted
key path; a missing entry counts 0) over every tenant."""


def _stat(stats: dict[str, Any], path: str) -> Any:
    *outer, key = path.split(".")
    for part in outer:
        stats = stats.get(part, {})
    return stats.get(key, 0)


def session_options_of(payload: Any) -> dict[str, int]:
    """Validate a wire/snapshot ``options`` object (budget whitelist)."""
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise ServeError(
            400, f"'options' must be a JSON object, got "
                 f"{type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(SESSION_OPTION_KEYS))
    if unknown:
        raise ServeError(
            400,
            f"unknown session option(s) {', '.join(map(repr, unknown))}; "
            f"expected only {', '.join(map(repr, SESSION_OPTION_KEYS))}",
        )
    options: dict[str, int] = {}
    for key, value in payload.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ServeError(
                400, f"option {key!r} must be a positive integer, got "
                     f"{value!r}"
            )
        options[key] = value
    return options


@dataclass(frozen=True)
class TenantState:
    """A tenant frozen at one log seq: what its snapshot is built from.

    Every part is immutable or a copy taken at the freeze, so
    :meth:`payload` can run on a checkpoint worker while the event loop
    goes on mutating the live session.
    """

    name: str
    seq: int
    term: int
    options: dict[str, int]
    applied: dict[str, dict[str, Any]]
    schema: DatabaseSchema
    dependencies: tuple[Dependency, ...]
    db: Optional[Database]

    def payload(self) -> dict[str, Any]:
        """The snapshot payload: one shape for checkpoints, new stores
        and follower bootstraps.  Its bundle is the canonical
        :mod:`repro.io` bundle that recovery reloads."""
        return {
            "name": self.name,
            "seq": self.seq,
            "term": self.term,
            "premise_hash": premise_hash_of(self.schema, self.dependencies),
            "bundle": bundle_to_payload(
                self.schema, self.dependencies, self.db
            ),
            "options": self.options,
            "applied_keys": self.applied,
        }


def _rebuild(
    source: str, payload: dict[str, Any]
) -> tuple[ReasoningSession, dict[str, int]]:
    """Rebuild the session a snapshot or bootstrap ``payload`` carries.

    Returns it with its budget options.  Raises :class:`WalCorruption`
    when the bundle fails to load or the rebuilt session's hash differs
    from the payload's ``premise_hash`` — state that cannot be proven
    to be what it claims is never served.
    """
    try:
        schema, dependencies, db = bundle_from_payload(
            payload.get("bundle") or {}
        )
    except Exception as exc:
        raise WalCorruption(f"{source} bundle failed to load: {exc}")
    options = session_options_of(payload.get("options") or None)
    session = ReasoningSession(schema, dependencies, db=db, **options)
    expected = payload.get("premise_hash")
    if expected and session.premise_hash != expected:
        raise WalCorruption(
            f"{source} premise_hash {expected} does not match the "
            f"rebuilt session ({session.premise_hash}); refusing to load it"
        )
    return session, options


class ArtifactCache:
    """LRU of donor sessions keyed by structural premise hash.

    The hit/miss/eviction/drift totals are plain counts; the owning
    :class:`TenantRegistry` exports them as the
    ``repro_artifact_cache_*_total`` counters when ``/metrics`` is
    scraped.
    """

    def __init__(self, capacity: int = DEFAULT_LRU_CAPACITY):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._donors: "OrderedDict[str, ReasoningSession]" = OrderedDict()
        self.hits = self.misses = self.evictions = self.drifted = 0

    def adopt_into(self, session: ReasoningSession) -> bool:
        """Share a cached donor's compiled artifacts into ``session``.

        Returns ``True`` on an LRU hit (artifacts adopted).  On a miss
        the session itself becomes the donor for its hash.  A donor
        whose live hash no longer matches its key (the tenant mutated
        after registration) is dropped, never adopted.
        """
        key = session.premise_hash
        donor = self._donors.get(key)
        if donor is not None and donor.premise_hash != key:
            del self._donors[key]
            self.drifted += 1
            donor = None
        if donor is not None:
            self._donors.move_to_end(key)
            session.adopt_compiled_from(donor)
            self.hits += 1
            return True
        self._donors[key] = session
        self._donors.move_to_end(key)
        if len(self._donors) > self.capacity:
            self._donors.popitem(last=False)
            self.evictions += 1
        self.misses += 1
        return False

    def __len__(self) -> int:
        return len(self._donors)

    def stats(self) -> dict[str, int]:
        return {
            "capacity": self.capacity,
            "entries": len(self._donors),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "drifted": self.drifted,
        }


class Tenant:
    """One named session behind the server, with its coalescer and log.

    ``store`` is the tenant's one :class:`~repro.serve.wal.TenantLog`:
    every applied mutation becomes a record there before the caller
    sees its result, and idempotency keys dedup retried mutations
    against the log's key map.  With ``--state-dir`` the log is a
    :class:`~repro.serve.wal.TenantStore`, so each record is fsync'd,
    and every ``snapshot_every`` appends the tenant is checkpointed:
    the WAL rolls before the reply, and a worker writes the snapshot.
    """

    def __init__(
        self,
        name: str,
        session: ReasoningSession,
        store: TenantLog,
        options: Optional[dict[str, int]] = None,
        shared_artifacts: bool = False,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ):
        self.name = name
        self.session = session
        self.coalescer = Coalescer(session, degrade=True)
        self.store = store
        self.options = dict(options or {})
        self.shared_artifacts = shared_artifacts
        self.snapshot_every = snapshot_every
        self.replayed_mutations = 0
        # The last record a mutation appended: what the primary
        # forwards to its followers.
        self.last_record: Optional[dict[str, Any]] = None
        self.applied_replicated = 0

    @property
    def replicated_seq(self) -> int:
        """The log position this tenant has applied through."""
        return self.store.seq

    def mutate(
        self,
        kind: str,
        dependencies: Iterable[str],
        key: Optional[str] = None,
        trace: Optional[Trace] = None,
    ) -> dict[str, Any]:
        """Ordered ``add``/``retract`` through the coalescing barrier.

        With an idempotency ``key``, a repeat of an already-applied
        mutation returns the recorded result without touching the
        session — the server half of the exactly-once retry contract.
        The mutation is logged (fsync'd when durable) before this
        returns, and the result carries its ``seq``.
        """
        if key is not None and (not isinstance(key, str) or not key):
            raise ServeError(400, "'key' must be a non-empty string")
        deps = list(dependencies)
        if not deps:
            raise ServeError(400, f"{kind} needs at least one dependency")
        if key is not None:
            replay = self.store.applied.get(key)
            if replay is not None:
                self.replayed_mutations += 1
                return {**replay, "idempotent_replay": True}
        self.coalescer.barrier()
        if kind == "add":
            delta = self.session.add(deps)
        else:
            delta = self.session.retract(deps)
        result = {
            "version": self.session.version,
            "added": [str(dep) for dep in delta.added],
            "removed": [str(dep) for dep in delta.removed],
        }
        changed = result["added"] if kind == "add" else result["removed"]
        record = self.last_record = self.store.append(
            {kind: list(changed)}, key=key, result=result, trace=trace,
        )
        result["seq"] = record["seq"]
        self._checkpoint_if_due(trace)
        return result

    def apply_replicated(self, records: Any) -> int:
        """Apply replicated log records in order; returns how many.

        Each record flows through the *same* mutation path a local
        client's would (coalescing barrier, then ``session.add`` /
        ``session.retract``), so a follower's session stays
        verdict-equivalent with the primary's: same premises, same
        compiled artifacts lifecycle, same version arithmetic.  The
        record's idempotency key and recorded result are logged too,
        which is what makes a keyed retry *after failover* replay
        instead of double-applying.  Records at or below the log's seq
        are duplicate deliveries and are skipped; a gap is a 409.  A
        malformed record (see :func:`~repro.serve.wal.record_problem`)
        is a 400 before any record is applied.
        """
        applied = 0
        for record in check_records(records):
            seq = record["seq"]
            if seq <= self.store.seq:
                continue
            if seq != self.store.seq + 1:
                raise ServeError(
                    409,
                    f"tenant {self.name!r}: replicated record seq {seq} "
                    f"does not follow applied seq {self.store.seq}",
                )
            self.coalescer.barrier()
            apply_patch(self.session, record["patch"])
            self.store.append_replicated(record)
            self._checkpoint_if_due()
            applied += 1
        self.applied_replicated += applied
        return applied

    def freeze(self) -> TenantState:
        """The tenant's state at its log's seq, from the *live* session:
        it covers every applied mutation, including ones a disk
        snapshot has not checkpointed yet."""
        store, session = self.store, self.session
        return TenantState(
            self.name, store.seq, store.term, dict(self.options),
            dict(store.applied), session.schema, session.dependencies,
            session.db,
        )

    def snapshot(self) -> dict[str, Any]:
        """The tenant's whole state at its log's seq, as a payload."""
        return self.freeze().payload()

    def checkpoint(self) -> None:
        """Snapshot a durable tenant's state before returning."""
        if self.store.durable:
            self.store.write_snapshot(self.snapshot())

    def _checkpoint_if_due(self, trace: Optional[Trace] = None) -> None:
        """Checkpoint every ``snapshot_every`` appends: the WAL rolls
        here, and the snapshot is built from the frozen state on the
        store's worker.  A ``trace`` receives a ``checkpoint`` span."""
        store = self.store
        if store.durable and (
            store.appends_since_snapshot >= self.snapshot_every
        ):
            started = time.perf_counter()
            store.checkpoint(self.freeze().payload)
            if trace is not None:
                trace.add_span(
                    "checkpoint", time.perf_counter() - started,
                    seq=store.seq,
                )

    async def whatif_async(
        self,
        targets: Sequence[str],
        add: Sequence[str] = (),
        retract: Sequence[str] = (),
        semantics: Semantics = Semantics.UNRESTRICTED,
        deadline: Optional[Deadline] = None,
    ) -> dict[str, Any]:
        """``whatif`` run whole on a fork, off the event loop.

        The fork is taken on the loop, after the coalescing barrier;
        both passes and the fork's own mutation then run in the default
        executor, so the tenant keeps serving while the speculation
        computes, and its counters and caches do not move.  The fork is
        copy-on-write and thread-confined after creation; the parent's
        compiled containers are never mutated by it.  A ``deadline`` or
        budget that runs out degrades the answers it cuts to unknown.
        """
        if not targets:
            raise ServeError(400, "whatif needs at least one target")
        if not (add or retract):
            raise ServeError(400, "whatif needs 'add' or 'retract' entries")
        self.coalescer.barrier()
        fork = self.session.fork()
        flips = await asyncio.get_running_loop().run_in_executor(
            None, lambda: fork.whatif(targets, add, retract, semantics,
                                      deadline=deadline, degrade=True),
        )
        return flips_to_json(flips)

    def stats(self) -> dict[str, Any]:
        payload = dict(self.session.stats())
        payload["name"] = self.name
        payload["shared_artifacts"] = self.shared_artifacts
        payload["premises"] = len(self.session.dependencies)
        payload["coalescer"] = self.coalescer.stats()
        payload["replayed_mutations"] = self.replayed_mutations
        payload["replicated_seq"] = self.replicated_seq
        if self.applied_replicated:
            payload["applied_replicated"] = self.applied_replicated
        if self.options:
            payload["options"] = dict(self.options)
        if self.store.durable:
            payload["wal"] = self.store.stats()
        return payload


class TenantRegistry:
    """Every named tenant the server knows, plus the artifact LRU.

    The registry owns the process's :class:`~repro.obs.metrics.
    MetricsRegistry` (a server scrapes it as ``/metrics``) and builds
    every tenant in one place, :meth:`_install`, which hands each
    tenant's coalescer and WAL the shared batch-size, fsync and
    snapshot instruments.

    With a :class:`~repro.serve.wal.StateDir` the registry is durable:
    tenants persisted in an earlier process are recovered in
    ``__init__`` (snapshot bundle reloaded, ``premise_hash`` verified,
    WAL tail replayed), and create/drop write through to disk.
    """

    def __init__(
        self,
        artifact_capacity: int = DEFAULT_LRU_CAPACITY,
        state_dir: Optional[StateDir] = None,
    ):
        self.tenants: dict[str, Tenant] = {}
        self.artifacts = ArtifactCache(artifact_capacity)
        self.state_dir = state_dir
        self.recovered_tenants = 0
        self.replayed_records = 0
        self.term = state_dir.load_term() if state_dir is not None else 0
        metrics = self.metrics = MetricsRegistry()
        # One batch-size and one fsync histogram shared by every tenant
        # (a per-tenant family would multiply exposition size without
        # changing the signal).
        self.batch_sizes = metrics.histogram(
            "repro_coalescer_batch_size",
            "Requests per coalescer flush",
            buckets=_BATCH_SIZE_BUCKETS,
        )
        self.fsync_seconds = metrics.histogram(
            "repro_wal_fsync_seconds", "WAL record write+fsync latency"
        )
        self.snapshot_seconds = metrics.histogram(
            "repro_wal_snapshot_seconds",
            "Checkpoint worker wall time: build, encode and fsync a snapshot",
        )
        self.snapshot_failures = metrics.counter(
            "repro_wal_snapshot_failures_total", "Checkpoint workers that raised"
        )
        metrics.register_collector(self._collect_metrics)
        if state_dir is not None:
            self._recover()

    def _collect_metrics(self) -> None:
        """Scrape-time series over the live tenants and the LRU.

        The engine's counters (reach compiles, chase rounds, FD memo
        hits, ...) are ints it already maintains; nothing new is paid
        per query, and the sums below run only when ``/metrics`` is
        actually scraped.
        """
        metrics = self.metrics
        metrics.gauge("repro_tenants", "Live tenants").set(len(self.tenants))
        stats = [tenant.stats() for tenant in self.tenants.values()]
        for name, path in TENANT_GAUGES.items():
            metrics.gauge(name).set(sum(_stat(each, path) for each in stats))
        cache = self.artifacts.stats()
        for event in ("hits", "misses", "evictions", "drifted"):
            metrics.counter(
                f"repro_artifact_cache_{event}_total", f"Artifact LRU {event}"
            ).value = cache[event]

    def set_term(self, term: int) -> None:
        """Adopt a (higher) node term, persisting it before it is used.

        Every tenant's log stamps subsequent records with the new term;
        the durable save happens *first*, so a crash between promotion
        and the next append can never resurrect the node at its old
        term.
        """
        if term < self.term:
            raise ValueError(
                f"term must be monotonic: {term} < current {self.term}"
            )
        if self.state_dir is not None and term != self.term:
            self.state_dir.save_term(term)
        self.term = term
        for tenant in self.tenants.values():
            tenant.store.term = max(tenant.store.term, term)

    def _install(
        self,
        name: str,
        session: ReasoningSession,
        options: dict[str, int],
        store: Optional[TenantLog] = None,
    ) -> Tenant:
        """Register ``session`` as tenant ``name`` — the one place a
        :class:`Tenant` is built.

        ``store`` is a recovered :class:`~repro.serve.wal.TenantStore`
        or a replica's bootstrapped log; a new tenant starts an empty
        log.  Shares cached compiled artifacts, stamps the log with the
        node's term, gives a durable registry's new tenant a store
        holding its snapshot, and wires the tenant into the shared
        histograms.
        """
        store = store if store is not None else TenantLog()
        store.term = max(store.term, self.term)
        tenant = Tenant(
            name,
            session,
            store,
            options=options,
            shared_artifacts=self.artifacts.adopt_into(session),
            snapshot_every=(
                self.state_dir.snapshot_every
                if self.state_dir is not None
                else DEFAULT_SNAPSHOT_EVERY
            ),
        )
        tenant.coalescer.batch_sizes = self.batch_sizes
        if self.state_dir is not None:
            if not store.durable:
                tenant.store = self.state_dir.create_tenant(tenant.snapshot())
            tenant.store.on_fsync = self.fsync_seconds.observe
            tenant.store.on_snapshot = self.snapshot_seconds.observe
            tenant.store.on_snapshot_failure = self.snapshot_failures.inc
        self.tenants[name] = tenant
        return tenant

    def _recover(self) -> None:
        """Rebuild every persisted tenant from its snapshot + WAL tail.

        The snapshot's ``premise_hash`` is checked against the freshly
        built session *before* the tail replays — a mismatch means the
        snapshot no longer describes the state it claims to, and
        replaying mutations on top would silently compound the damage.
        """
        for name, store, snapshot, tail in self.state_dir.recover():
            try:
                session, options = _rebuild(
                    f"tenant {name!r}: snapshot", snapshot
                )
                for record in tail:
                    try:
                        apply_patch(session, record.get("patch"))
                    except Exception as exc:
                        raise WalCorruption(
                            f"tenant {name!r}: WAL record seq "
                            f"{record.get('seq')} failed to replay: {exc}"
                        )
                    self.replayed_records += 1
            except Exception:
                store.close()
                raise
            self._install(name, session, options, store)
            self.recovered_tenants += 1

    def create(
        self,
        name: str,
        schema: DatabaseSchema,
        dependencies: Iterable[Dependency] = (),
        db: Optional[Database] = None,
        options: Optional[dict[str, int]] = None,
        **session_options: Any,
    ) -> Tenant:
        """Register a new tenant; adopts shared artifacts when possible.

        ``options`` is the whitelisted budget dict (persisted with the
        snapshot when durable); extra ``session_options`` are trusted
        caller overrides that are *not* persisted.
        """
        if not TENANT_NAME.fullmatch(name) or name in (".", ".."):
            raise ServeError(
                400,
                f"tenant name {name!r} must match [A-Za-z0-9._~-]+ and "
                f"not be '.' or '..'",
            )
        if name in self.tenants:
            raise ServeError(409, f"tenant {name!r} already exists")
        options = dict(options or {})
        merged = {**options, **session_options}
        session = ReasoningSession(schema, dependencies, db=db, **merged)
        return self._install(name, session, options)

    def create_from_bundle(
        self,
        name: str,
        bundle: dict[str, Any],
        options: Any = None,
    ) -> Tenant:
        """Register a tenant from a :mod:`repro.io` bundle payload."""
        if not isinstance(bundle, dict):
            raise ServeError(
                400,
                f"'bundle' must be a JSON object, got "
                f"{type(bundle).__name__}",
            )
        schema, dependencies, db = bundle_from_payload(bundle)
        return self.create(
            name, schema, dependencies, db=db,
            options=session_options_of(options),
        )

    def replication_snapshot_of(self, name: str) -> dict[str, Any]:
        """The bootstrap payload a follower pulls for one tenant."""
        return self.get(name).snapshot()

    def create_replica(
        self, name: str, payload: dict[str, Any]
    ) -> Tenant:
        """Build (or rebuild) a tenant from a replicated bootstrap payload.

        The rebuilt session's ``premise_hash`` is verified against the
        payload's before the tenant goes live — a follower must refuse
        to serve state it cannot prove it reconstructed — and an
        existing tenant of the same name is *replaced* (a re-bootstrap
        after divergence or a truncated-away tail supersedes whatever
        the follower had).  The tenant's log resumes at the payload's
        seq, term and keys.
        """
        session, options = _rebuild(f"replica {name!r}: bootstrap", payload)
        log = TenantLog()
        log.resume(payload)
        if name in self.tenants:
            self.drop(name)
        return self._install(name, session, options, log)

    def get(self, name: str) -> Tenant:
        tenant = self.tenants.get(name)
        if tenant is None:
            raise ServeError(404, f"no tenant named {name!r}")
        return tenant

    def drop(self, name: str) -> None:
        """Forget a tenant (its artifacts may stay cached as a donor)."""
        tenant = self.tenants.get(name)
        if tenant is None:
            raise ServeError(404, f"no tenant named {name!r}")
        tenant.store.close()
        if self.state_dir is not None:
            self.state_dir.drop_tenant(name)
        del self.tenants[name]

    def checkpoint_all(self) -> None:
        """Snapshot every durable tenant (graceful-shutdown hook)."""
        for tenant in self.tenants.values():
            tenant.checkpoint()

    def close(self) -> None:
        for tenant in self.tenants.values():
            tenant.store.close()

    def stats(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "tenants": len(self.tenants),
            "artifact_cache": self.artifacts.stats(),
        }
        if self.state_dir is not None:
            payload["state_dir"] = self.state_dir.stats()
            payload["recovered_tenants"] = self.recovered_tenants
            payload["replayed_records"] = self.replayed_records
        return payload
