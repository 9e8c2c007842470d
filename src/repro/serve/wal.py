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
* every ``snapshot_every`` appends the tenant checkpoints.  At seq N
  the writer *rolls* the log: ``wal.jsonl`` is closed and renamed to
  the closed segment ``wal-N.jsonl``, a fresh ``wal.jsonl`` is opened,
  and the directory is fsync'd — all before the reply.  A worker
  thread then builds the full premise bundle from inputs frozen at N,
  writes it to ``snapshot.json`` — a temp file, fsync'd, atomically
  renamed — together with the session's ``premise_hash``, the seq it
  covers and the recent idempotency-key results, and only then deletes
  the segments it covers.  At tenant creation and graceful shutdown the
  same steps run before returning.

Recovery (:meth:`StateDir.recover` + the registry's replay) rebuilds
each tenant by loading the snapshot bundle and re-applying the log
tail: the closed segments in seq order, then ``wal.jsonl``, keeping only
records with ``seq`` greater than the snapshot's.  So a crash anywhere
in a checkpoint loses nothing and replays nothing twice: before the
rename the old snapshot plus the segment hold the history, after it
the new snapshot makes the segment's records stale.  The recovered
session's ``premise_hash`` is compared against the snapshot's as a
corruption check.

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
          wal-<seq>.jsonl # closed segment: records up to seq, rolled off
                          # at a checkpoint not yet durable (one while it
                          # runs; more only after one failed or crashed)
          wal.jsonl       # the active log: records since the last roll
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import threading
import time
import urllib.parse
from typing import Any, Callable, Optional

from repro.obs.tracing import Trace
from repro.serve.faults import CRASH_AFTER_WAL_APPEND, CRASH_BEFORE_WAL_APPEND
from repro.serve.faults import CRASH_IN_SNAPSHOT, NO_FAULTS, FaultInjector
from repro.serve.protocol import ServeError

SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.jsonl"
SEGMENT_FILE = "wal-{}.jsonl"
SEGMENT = re.compile(r"wal-(\d+)\.jsonl")
META_FILE = "meta.json"
DEFAULT_SNAPSHOT_EVERY = 64
MAX_APPLIED_KEYS = 1024

log = logging.getLogger(__name__)


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
    acknowledgment contract.  :meth:`checkpoint` rolls the WAL and
    leaves the snapshot to a worker thread; :meth:`write_snapshot` runs
    the same steps before it returns.  :meth:`open` rebuilds the log
    (seq, term, keys) from the snapshot plus the replayed tail.

    One lock orders the files a reader lists: :meth:`read_from` holds
    it across its read, and the appends, the roll and the worker's
    segment deletion each take it, so a tail read never sees a gap.
    """

    durable = True

    def __init__(self, path: str, faults: FaultInjector = NO_FAULTS):
        super().__init__()
        self.path = path
        self.faults = faults
        self.base_seq = 0
        self.appends = 0
        self.snapshots = 0
        self.snapshot_failures = 0
        self.appends_since_snapshot = 0
        self._wal = None
        self._lock = threading.Lock()
        # The checkpoint in flight, and what it left: its wall time in
        # seconds, or the exception it raised.
        self._worker: Optional[threading.Thread] = None
        self._outcome: Any = None
        # Set by the tenant registry when it installs the tenant: called
        # with each record write's fsync wall time (seconds).  Replicated
        # appends report through the same hook, so follower fsyncs are
        # observed too.  The snapshot hooks are called on the writer's
        # thread when it reads a finished worker's result.
        self.on_fsync: Optional[Callable[[float], None]] = None
        self.on_snapshot: Optional[Callable[[float], None]] = None
        self.on_snapshot_failure: Optional[Callable[[], None]] = None

    @property
    def _wal_path(self) -> str:
        return os.path.join(self.path, WAL_FILE)

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
        store._install_snapshot(store._write_snapshot(snapshot))
        store._open_wal(truncate=True)
        return store

    @classmethod
    def open(
        cls, path: str, faults: FaultInjector = NO_FAULTS
    ) -> tuple["TenantStore", dict[str, Any], list[dict[str, Any]]]:
        """Load a tenant directory: ``(store, snapshot, wal tail)``.

        The tail contains only records newer than the snapshot, in seq
        order; ``store.seq`` resumes from the last durable record so
        appended sequence numbers never repeat.  A torn final record is
        cut off ``wal.jsonl`` (and the cut fsync'd) before anything is
        appended after it.
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
        tail, good_end = store._records_after(store.base_seq)
        for record in tail:
            store._advance(record)
        store._open_wal(truncate=not os.path.exists(store._wal_path))
        wal = store._wal
        if os.fstat(wal.fileno()).st_size > good_end:
            wal.truncate(good_end)
            os.fsync(wal.fileno())
        return store, snapshot, tail

    def close(self) -> None:
        """Finish the checkpoint in flight, then release the WAL file."""
        self.join_checkpoint()
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def _open_wal(self, truncate: bool) -> None:
        self.close()
        self._wal = open(
            self._wal_path, "w" if truncate else "a", encoding="utf-8"
        )
        if truncate:
            self._wal.flush()
            os.fsync(self._wal.fileno())
            _fsync_dir(self.path)

    def _segments(self) -> list[tuple[int, str]]:
        """The closed segments as ``(last seq, path)``, in seq order."""
        segments = []
        for entry in os.listdir(self.path):
            match = SEGMENT.fullmatch(entry)
            if match:
                segments.append(
                    (int(match.group(1)), os.path.join(self.path, entry))
                )
        return sorted(segments)

    def _records_after(
        self, after: int
    ) -> tuple[list[dict[str, Any]], int]:
        """Every record with ``seq > after``: the closed segments in seq
        order, then ``wal.jsonl``.  Returns them with the byte offset at
        which ``wal.jsonl``'s last valid record ends."""
        records: list[dict[str, Any]] = []
        for last, segment in self._segments():
            if last > after:
                records += _scan(segment, after, closed=True)[0]
        active, good_end = _scan(self._wal_path, after, closed=False)
        return records + active, good_end

    def read_from(self, after: int) -> Optional[list[dict[str, Any]]]:
        """Records with ``seq > after``; ``None`` when ``after``
        predates the current snapshot (a checkpoint deleted them)."""
        with self._lock:
            if after < self.base_seq:
                return None
            return self._records_after(after)[0]

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
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            self._wal.write(line)
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

    def checkpoint(self, build: Callable[[], dict[str, Any]]) -> None:
        """Checkpoint the log at its seq; the snapshot is written later.

        Here, on the writer's thread: wait for the previous checkpoint,
        then roll the WAL.  A worker thread then calls ``build`` for
        the snapshot payload — the tenant's state at this seq, from
        inputs frozen before the call — and writes it; until that is
        durable, recovery and :meth:`read_from` read the rolled-off
        segment.
        """
        self.join_checkpoint()
        seq = self._roll()
        launched = threading.Event()
        self._worker = threading.Thread(
            target=self._run, args=(build, seq, launched),
            name=f"checkpoint {self.path}",
        )
        self._worker.start()
        launched.set()

    def write_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Checkpoint ``snapshot`` — the tenant's state at this log's
        seq — before returning: :meth:`checkpoint`'s steps, inline."""
        self.join_checkpoint()
        self._finish(snapshot, self._roll())

    def join_checkpoint(self) -> None:
        """Wait for the checkpoint worker, if one runs, and read its
        result: its wall time goes to ``on_snapshot``; a failure is
        counted, and its segment stays for recovery and the next
        checkpoint."""
        worker = self._worker
        if worker is None:
            return
        worker.join()
        self._worker = None
        outcome, self._outcome = self._outcome, None
        if isinstance(outcome, Exception):
            self.snapshot_failures += 1
            if self.on_snapshot_failure is not None:
                self.on_snapshot_failure()
        elif self.on_snapshot is not None:
            self.on_snapshot(outcome)

    def _roll(self) -> int:
        """Start a checkpoint at the log's seq N and return N.

        ``wal.jsonl`` becomes the closed segment ``wal-N.jsonl`` and a
        fresh one is opened, with one directory fsync, so the next
        acknowledged record lands in a durably named file.  An active
        file that holds no record is reopened, not rolled: a second roll
        at the same N would overwrite the first segment.
        """
        seq = self.seq
        with self._lock:
            roll = os.fstat(self._wal.fileno()).st_size > 0
            self._wal.close()
            if roll:
                os.replace(
                    self._wal_path,
                    os.path.join(self.path, SEGMENT_FILE.format(seq)),
                )
            self._wal = open(self._wal_path, "w", encoding="utf-8")
        if roll:
            _fsync_dir(self.path)
        self.snapshots += 1
        self.appends_since_snapshot = 0
        return seq

    def _run(
        self,
        build: Callable[[], dict[str, Any]],
        seq: int,
        launched: threading.Event,
    ) -> None:
        """The checkpoint worker: finish the checkpoint at ``seq``.

        It first waits for ``launched``, set once ``Thread.start`` has
        returned on the writer's thread.  A worker that ran on at once
        would keep the GIL through its hash and encode while the writer,
        woken by ``start``, waited for it with its reply unsent.  It
        gets the GIL back at the writer's next blocking call, the
        reply's send at the earliest, and then yields its CPU once, so
        that whoever the reply woke runs before its CPU-bound work.
        """
        launched.wait()
        os.sched_yield()
        started = time.perf_counter()
        try:
            self._finish(build(), seq)
        except Exception as exc:
            log.exception(
                "checkpoint of %s at seq %d failed; its WAL segment stays",
                self.path, seq,
            )
            self._outcome = exc
        else:
            self._outcome = time.perf_counter() - started

    def _finish(self, snapshot: dict[str, Any], seq: int) -> None:
        """Make ``snapshot`` (at ``seq``) durable, then advance
        ``base_seq`` to it and delete the closed segments it covers."""
        tmp_path = self._write_snapshot(snapshot)
        self.faults.crash_point(CRASH_IN_SNAPSHOT)
        self._install_snapshot(tmp_path)
        with self._lock:
            self.base_seq = seq
            for last, segment in self._segments():
                if last <= seq:
                    os.remove(segment)

    def _write_snapshot(self, snapshot: dict[str, Any]) -> str:
        """Write ``snapshot`` to its temp file and fsync it; returns the
        temp path.  One ``json.dumps`` call encodes it: ``json.dump``
        would stream the same bytes through the pure-Python encoder."""
        tmp_path = os.path.join(self.path, SNAPSHOT_FILE + ".tmp")
        text = json.dumps(snapshot, separators=(",", ":"))
        with open(tmp_path, "w", encoding="utf-8") as fp:
            fp.write(text)
            fp.flush()
            os.fsync(fp.fileno())
        return tmp_path

    def _install_snapshot(self, tmp_path: str) -> None:
        os.replace(tmp_path, os.path.join(self.path, SNAPSHOT_FILE))
        _fsync_dir(self.path)

    def stats(self) -> dict[str, int]:
        """Log counters; a finished worker's result is read here too, so
        a ``/metrics`` scrape sees every checkpoint that has ended."""
        worker = self._worker
        if worker is not None and not worker.is_alive():
            self.join_checkpoint()
        return {
            "seq": self.seq,
            "term": self.term,
            "appends": self.appends,
            "snapshots": self.snapshots,
            "snapshot_failures": self.snapshot_failures,
            "appends_since_snapshot": self.appends_since_snapshot,
            "applied_keys": len(self.applied),
        }


def _scan(
    path: str, after: int, closed: bool
) -> tuple[list[dict[str, Any]], int]:
    """The valid records with ``seq > after`` in one WAL file, in file
    order, and the byte offset at which its last valid record ends.

    The file is streamed line by line, never slurped whole.  A record
    is a JSON object with a ``seq`` on a line of its own, newline
    included: an append writes both in one write before its fsync, so a
    line without its newline was never acknowledged.  In the active
    ``wal.jsonl`` a torn final record — the crash arrived mid-append,
    before the fsync that would have acknowledged it — is discarded,
    matching the contract that an unacknowledged mutation may be lost;
    any blank lines trailing it are padding, not records, so they do
    not promote the tear to corruption.  A torn or unparsable line
    followed by *more records* is real corruption and raises, and so
    is any torn line in a ``closed`` segment: it was fsync'd whole
    before its roll.
    """
    records: list[dict[str, Any]] = []
    try:
        fp = open(path, "rb")
    except FileNotFoundError:
        return records, 0
    good_end = offset = 0
    torn: Optional[tuple[int, str]] = None
    followed = False
    with fp:
        for number, line in enumerate(fp, start=1):
            offset += len(line)
            if not line.strip():
                continue
            if torn is not None:
                followed = True
                break
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("record has no terminating newline")
                record = json.loads(line)
                if not isinstance(record, dict) or "seq" not in record:
                    raise ValueError("record is not an object with 'seq'")
            except ValueError as exc:
                torn = (number, str(exc))
                continue
            good_end = offset
            if record["seq"] > after:
                records.append(record)
    if torn is not None and (followed or closed):
        raise WalCorruption(
            f"corrupt WAL record at {path}:{torn[0]}: {torn[1]}"
        )
    return records, good_end


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
