"""Per-tenant durability: a write-ahead log plus periodic snapshots.

The serving layer's tenants are long-lived in-memory
:class:`~repro.engine.session.ReasoningSession` objects; this module
makes their premise *mutations* survive a crash.  The design is the
textbook WAL/checkpoint pair, scaled to the workload (premise sets are
small, mutations are rare relative to reads):

* every applied ``add``/``retract`` appends one JSONL record to the
  tenant's ``wal.jsonl`` — the mutation itself in :mod:`repro.io`'s
  patch format, a monotonically increasing ``seq``, the optional client
  idempotency ``key``, and the result payload the client was (or will
  be) told — and the line is flushed and fsync'd before the server
  responds, so an acknowledged mutation is on disk;
* every ``snapshot_every`` appends (and at tenant creation) the full
  premise bundle is checkpointed to ``snapshot.json`` — written to a
  temp file, fsync'd, and atomically renamed — together with the
  session's ``premise_hash``, the WAL ``seq`` the snapshot covers, and
  the recent idempotency-key results; the WAL is then truncated.

Recovery (:meth:`StateDir.recover` + the registry's replay) rebuilds
each tenant by loading the snapshot bundle and re-applying the WAL
tail — only records with ``seq`` greater than the snapshot's, so a
crash *between* the snapshot rename and the WAL truncation replays
nothing twice.  The recovered session's ``premise_hash`` is compared
against the snapshot's as a corruption check.

Idempotency keys make retried mutations exactly-once across crashes: a
key seen in the snapshot map or the replayed tail short-circuits to
the recorded result instead of re-applying the patch.

Replication and the ``term`` fencing rule
-----------------------------------------

The same log doubles as the replication stream (:mod:`repro.serve.
replication`): a primary ships snapshot bootstraps plus log records by
``seq`` to its followers, and :meth:`TenantLog.read_from` is the
tailing API a catch-up pull reads.  A tenant without ``--state-dir``
keeps the same log (:class:`TenantLog`) in memory only.  Every record
is stamped with the node's **term** — a monotonically increasing epoch
number, bumped by exactly one each time a follower promotes itself to
primary — and a snapshot records the highest term it covers.  The
fencing rule:

* a node **refuses any replication stream whose envelope term is lower
  than the highest term it has ever observed** (HTTP 409, the stream
  is *fenced*);
* a primary whose forwarded stream is fenced by a follower has been
  superseded — it **steps down** to a read-only role on the spot and
  names the fencing node as the leader it redirects mutations to.

Terms are persisted in the state dir's ``meta.json`` (atomic
tmp+fsync+rename, like snapshots), so a rebooted node resumes at its
old term and a *resurrected stale primary* — restarted from a state
dir recorded under term *t* after some follower promoted to *t+1* —
is fenced on its first forward instead of silently forking history.

The on-disk layout under ``--state-dir``::

    STATE_DIR/
      meta.json           # {"term": highest term this node served at}
      tenants/
        <url-quoted tenant name>/
          snapshot.json   # bundle + premise_hash + seq + term + applied keys
          wal.jsonl       # patch records with seq > snapshot seq
"""

from __future__ import annotations

import json
import os
import shutil
import time
import urllib.parse
from typing import Any, Callable, Iterator, Optional

from repro.obs.tracing import Trace
from repro.serve.faults import CRASH_AFTER_WAL_APPEND, CRASH_BEFORE_WAL_APPEND
from repro.serve.faults import NO_FAULTS, FaultInjector
from repro.serve.protocol import ServeError

SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.jsonl"
META_FILE = "meta.json"
DEFAULT_SNAPSHOT_EVERY = 64
MAX_APPLIED_KEYS = 1024


def _fsync_dir(path: str) -> None:
    """Make a rename/creation in ``path`` durable (POSIX dirs are files)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalCorruption(ServeError):
    """A snapshot or WAL file failed to load during recovery."""

    def __init__(self, message: str):
        super().__init__(500, message)


class TenantLog:
    """One tenant's mutation log: seq, term, idempotency keys, records.

    Every applied ``add``/``retract`` becomes one record: its ``seq``
    orders replication, its ``term`` stamps the node epoch it was
    written under, and its optional idempotency ``key`` maps, in
    ``applied``, to the result the client was told, so a retry replays
    instead of re-applying.  ``applied`` keeps the newest
    :data:`MAX_APPLIED_KEYS` keys, trimmed where a key is inserted.

    This class keeps the log in memory; :class:`TenantStore` adds the
    file.  An in-memory log keeps no records, so :meth:`read_from` can
    answer only a follower that is already caught up.
    """

    durable = False

    def __init__(self) -> None:
        self.seq = 0
        self.term = 0
        self.applied: dict[str, dict[str, Any]] = {}

    def resume(self, snapshot: dict[str, Any]) -> None:
        """Continue from a snapshot payload: its seq, term and keys."""
        self.seq = int(snapshot.get("seq", 0))
        self.term = int(snapshot.get("term", 0))
        applied = snapshot.get("applied_keys")
        if isinstance(applied, dict):
            for key, result in applied.items():
                self._remember(key, result)

    def close(self) -> None:
        """Release the log's file; an in-memory log holds none."""

    def read_from(self, after: int) -> Optional[list[dict[str, Any]]]:
        """Records with ``seq > after`` — the replication tailing API.

        ``None`` means those records are no longer kept, so the
        follower must re-bootstrap from a snapshot instead of tailing.
        """
        return [] if after >= self.seq else None

    # -- the write path ----------------------------------------------------

    def append(
        self,
        patch: dict[str, Any],
        key: Optional[str] = None,
        result: Optional[dict[str, Any]] = None,
        trace: Optional[Trace] = None,
    ) -> dict[str, Any]:
        """Log one applied mutation at the next seq; returns the record.

        The caller's ``result`` dict is *not* mutated: the ``seq`` is
        stamped into a copy, so the log never aliases the server-side
        response payload.  The returned record (seq, term, patch, key,
        recorded result) is exactly what replication forwards.  A
        ``trace`` stamps its id into the record — the request↔mutation
        link that rides the replication stream to the follower's log.
        """
        seq = self.seq + 1
        record: dict[str, Any] = {"seq": seq, "term": self.term,
                                  "patch": patch}
        if key:
            record["key"] = key
        if trace is not None:
            record["trace"] = trace.trace_id
        if result is not None:
            # A replay (after a reboot, too) returns the same
            # acknowledgment as the original, seq included.
            record["result"] = {**result, "seq": seq}
        self._persist(record, trace)
        self._advance(record)
        return record

    def append_replicated(self, record: dict[str, Any]) -> None:
        """Log a record received from the replication stream.

        The record is kept verbatim — same ``seq``, same ``term``, same
        recorded result — so a promoted follower's log is byte-for-byte
        continuable from the primary's history.  Records must arrive in
        order; a gap is the caller's job to detect and resolve by
        resync *before* appending.
        """
        seq = int(record["seq"])
        if seq <= self.seq:
            raise WalCorruption(
                f"replicated record seq {seq} does not advance the log "
                f"(at seq {self.seq})"
            )
        self._persist(record)
        self._advance(record)

    def _persist(
        self, record: dict[str, Any], trace: Optional[Trace] = None
    ) -> None:
        """Write ``record`` down; an in-memory log has nowhere to."""

    def _advance(self, record: dict[str, Any]) -> None:
        """Make ``record`` the newest: its seq, term and key."""
        self.seq = int(record["seq"])
        self.term = max(self.term, int(record.get("term", 0)))
        key = record.get("key")
        if key:
            self._remember(key, record.get("result") or {})

    def _remember(self, key: str, result: dict[str, Any]) -> None:
        applied = self.applied
        applied[key] = result
        while len(applied) > MAX_APPLIED_KEYS:
            del applied[next(iter(applied))]


class TenantStore(TenantLog):
    """A :class:`TenantLog` on disk: a snapshot plus a WAL tail.

    :meth:`append` writes, flushes and fsyncs each record between the
    two crash fault points before it returns — the WAL's
    acknowledgment contract.  :meth:`write_snapshot` checkpoints the
    tenant atomically and truncates the WAL, and :meth:`open` rebuilds
    the log (seq, term, keys) from the snapshot plus the replayed tail.
    """

    durable = True

    def __init__(self, path: str, faults: FaultInjector = NO_FAULTS):
        super().__init__()
        self.path = path
        self.faults = faults
        self.base_seq = 0
        self.appends = 0
        self.snapshots = 0
        self.appends_since_snapshot = 0
        self._wal = None
        # Set by the tenant registry when it installs the tenant: called
        # with each record write's fsync wall time (seconds).  Replicated
        # appends report through the same hook, so follower fsyncs are
        # observed too.
        self.on_fsync: Optional[Callable[[float], None]] = None

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        snapshot: dict[str, Any],
        faults: FaultInjector = NO_FAULTS,
    ) -> "TenantStore":
        """Initialize a fresh tenant directory holding ``snapshot``.

        The log resumes at the snapshot's seq, term and keys: seq 0 for
        a new tenant, the primary's position for a follower
        bootstrapping from a replicated snapshot.
        """
        os.makedirs(path, exist_ok=True)
        store = cls(path, faults)
        store.resume(snapshot)
        store.base_seq = store.seq
        store._write_snapshot(snapshot)
        store._open_wal(truncate=True)
        return store

    @classmethod
    def open(
        cls, path: str, faults: FaultInjector = NO_FAULTS
    ) -> tuple["TenantStore", dict[str, Any], list[dict[str, Any]]]:
        """Load a tenant directory: ``(store, snapshot, wal tail)``.

        The tail contains only records newer than the snapshot, in seq
        order; ``store.seq`` resumes from the last durable record so
        appended sequence numbers never repeat.
        """
        store = cls(path, faults)
        snapshot_path = os.path.join(path, SNAPSHOT_FILE)
        try:
            with open(snapshot_path, "r", encoding="utf-8") as fp:
                snapshot = json.load(fp)
        except FileNotFoundError:
            raise WalCorruption(f"tenant state at {path} has no snapshot")
        except (OSError, json.JSONDecodeError) as exc:
            raise WalCorruption(f"unreadable snapshot at {snapshot_path}: {exc}")
        if not isinstance(snapshot, dict) or "seq" not in snapshot:
            raise WalCorruption(f"malformed snapshot at {snapshot_path}")
        store.resume(snapshot)
        store.base_seq = store.seq
        tail = [
            record for record in store._read_wal()
            if record["seq"] > store.base_seq
        ]
        for record in tail:
            store._advance(record)
        store._open_wal(truncate=False)
        return store, snapshot, tail

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def _open_wal(self, truncate: bool) -> None:
        self.close()
        wal_path = os.path.join(self.path, WAL_FILE)
        self._wal = open(wal_path, "w" if truncate else "a", encoding="utf-8")
        if truncate:
            self._wal.flush()
            os.fsync(self._wal.fileno())
            _fsync_dir(self.path)

    def _read_wal(self) -> Iterator[dict[str, Any]]:
        """Yield valid WAL records in file order, streaming line by line.

        A torn final record — the crash arrived mid-append, before the
        fsync that would have acknowledged it — is discarded, matching
        the contract that an unacknowledged mutation may be lost; any
        blank lines trailing it are padding, not records, so they do
        not promote the tear to corruption.  A torn or unparsable line
        followed by *more records* is real corruption and raises.  The
        file is never slurped whole: a multi-thousand-record tail
        recovers in constant memory.
        """
        wal_path = os.path.join(self.path, WAL_FILE)
        try:
            fp = open(wal_path, "r", encoding="utf-8")
        except FileNotFoundError:
            return
        with fp:
            torn: Optional[tuple[int, str]] = None
            for number, line in enumerate(fp, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                if torn is not None:
                    raise WalCorruption(
                        f"corrupt WAL record at {wal_path}:{torn[0]}: "
                        f"{torn[1]}"
                    )
                try:
                    record = json.loads(stripped)
                    if not isinstance(record, dict) or "seq" not in record:
                        raise ValueError("record is not an object with 'seq'")
                except ValueError as exc:
                    torn = (number, str(exc))
                    continue
                yield record

    def read_from(self, after: int) -> Optional[list[dict[str, Any]]]:
        """WAL records with ``seq > after``; ``None`` when ``after``
        predates the current snapshot (a checkpoint truncated them)."""
        if after < self.base_seq:
            return None
        return [
            record for record in self._read_wal() if record["seq"] > after
        ]

    # -- the write path ----------------------------------------------------

    def append(self, *args: Any, **kwargs: Any) -> dict[str, Any]:
        """:meth:`TenantLog.append`, between the two crash fault points."""
        self.faults.crash_point(CRASH_BEFORE_WAL_APPEND)
        record = super().append(*args, **kwargs)
        self.faults.crash_point(CRASH_AFTER_WAL_APPEND)
        return record

    def _persist(
        self, record: dict[str, Any], trace: Optional[Trace] = None
    ) -> None:
        """Write + flush + fsync one record; a ``trace`` receives a
        ``wal-fsync`` span covering it."""
        start = time.perf_counter()
        self._wal.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._wal.flush()
        os.fsync(self._wal.fileno())
        elapsed = time.perf_counter() - start
        self.appends += 1
        self.appends_since_snapshot += 1
        if self.on_fsync is not None:
            self.on_fsync(elapsed)
        if trace is not None:
            trace.add_span("wal-fsync", elapsed, seq=record["seq"])

    # -- checkpoints -------------------------------------------------------

    def write_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Checkpoint ``snapshot`` and truncate the WAL.

        ``snapshot`` is the tenant's state at this log's ``seq``; the
        rename is atomic, and a crash before the truncation is handled
        by recovery's ``seq`` filter.
        """
        self._write_snapshot(snapshot)
        self._open_wal(truncate=True)
        self.base_seq = self.seq
        self.snapshots += 1
        self.appends_since_snapshot = 0

    def _write_snapshot(self, snapshot: dict[str, Any]) -> None:
        snapshot_path = os.path.join(self.path, SNAPSHOT_FILE)
        tmp_path = snapshot_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as fp:
            json.dump(snapshot, fp, separators=(",", ":"))
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_path, snapshot_path)
        _fsync_dir(self.path)

    def stats(self) -> dict[str, int]:
        return {
            "seq": self.seq,
            "term": self.term,
            "appends": self.appends,
            "snapshots": self.snapshots,
            "appends_since_snapshot": self.appends_since_snapshot,
            "applied_keys": len(self.applied),
        }


class StateDir:
    """The server's ``--state-dir``: one :class:`TenantStore` per tenant."""

    def __init__(
        self,
        root: str,
        faults: FaultInjector = NO_FAULTS,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ):
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.root = root
        self.faults = faults
        self.snapshot_every = snapshot_every
        os.makedirs(self.tenants_root, exist_ok=True)

    @property
    def tenants_root(self) -> str:
        return os.path.join(self.root, "tenants")

    @property
    def meta_path(self) -> str:
        return os.path.join(self.root, META_FILE)

    def load_term(self) -> int:
        """The highest term this node has served at (0 if never saved)."""
        try:
            with open(self.meta_path, "r", encoding="utf-8") as fp:
                meta = json.load(fp)
        except FileNotFoundError:
            return 0
        except (OSError, json.JSONDecodeError) as exc:
            raise WalCorruption(
                f"unreadable state-dir meta at {self.meta_path}: {exc}"
            )
        return int(meta.get("term", 0))

    def save_term(self, term: int) -> None:
        """Durably record the node's term (atomic, like snapshots).

        Saved *before* a promotion or adoption takes effect, so a
        rebooted node can never come back believing an older term than
        one it already fenced or served under.
        """
        tmp_path = self.meta_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as fp:
            json.dump({"term": int(term)}, fp)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_path, self.meta_path)
        _fsync_dir(self.root)

    def _tenant_path(self, name: str) -> str:
        return os.path.join(
            self.tenants_root, urllib.parse.quote(name, safe="")
        )

    def create_tenant(self, snapshot: dict[str, Any]) -> TenantStore:
        """A fresh store for the tenant ``snapshot`` names, holding it."""
        return TenantStore.create(
            self._tenant_path(snapshot["name"]), snapshot, self.faults
        )

    def drop_tenant(self, name: str) -> None:
        path = self._tenant_path(name)
        if os.path.isdir(path):
            shutil.rmtree(path)
            _fsync_dir(self.tenants_root)

    def recover(
        self,
    ) -> list[tuple[str, TenantStore, dict[str, Any], list[dict[str, Any]]]]:
        """Open every persisted tenant: ``(name, store, snapshot, tail)``.

        Deterministic (sorted) order, so recovery is reproducible; the
        caller replays each tail into a freshly built session.
        """
        recovered = []
        for entry in sorted(os.listdir(self.tenants_root)):
            path = os.path.join(self.tenants_root, entry)
            if not os.path.isdir(path):
                continue
            store, snapshot, tail = TenantStore.open(path, self.faults)
            name = snapshot.get("name") or urllib.parse.unquote(entry)
            recovered.append((name, store, snapshot, tail))
        return recovered

    def stats(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "snapshot_every": self.snapshot_every,
            "tenants": len(os.listdir(self.tenants_root)),
        }
