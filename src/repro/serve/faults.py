"""Named fault points for chaos-testing the serving stack.

Crash-safety claims are worthless untested, and the interesting
failures happen *between* two steps the happy path treats as atomic —
after the WAL append but before the response, say.  A
:class:`FaultInjector` places named trip-wires at exactly those seams:

* ``crash-before-wal-append`` — the process dies (``os._exit``, no
  cleanup, the ``kill -9`` equivalent) after a mutation was validated
  and applied in memory but before its WAL record exists.  The
  mutation must be *lost* on restart; a keyed client retry re-applies
  it.
* ``crash-after-wal-append`` — the process dies after the record is
  fsync'd but before the client sees a response.  The mutation must
  *survive* restart; a keyed client retry must dedup, not double-apply.
* ``crash-in-snapshot`` — the process dies inside a checkpoint, after
  the new snapshot's temp file is fsync'd and before its rename.  The
  old snapshot plus the rolled-off WAL segment must recover every
  acknowledged mutation, the one whose write came due for the
  checkpoint included.
* ``drop-connection`` — the server writes a few response bytes, then
  slams the socket shut mid-response (what a dying load balancer looks
  like to the client).
* ``latency`` — every dispatch sleeps ``latency_ms`` first, making
  deadline expiry reproducible without a pathological premise set.
  The ``latency:hold`` variant *blocks the serving loop* for the
  delay instead of yielding, emulating a request whose handler
  compute occupies the node — the per-request service time that
  makes one node a throughput ceiling.  The replication benchmark
  uses it to measure read scale-out machine-independently.
* ``partition-replication`` — the node drops off the replication
  network entirely: a primary stops forwarding records, and every
  ``/replication/*`` request it receives answers 503.  Followers see
  missed heartbeats and (if configured) promote — this is the fault
  that drives the failover tests without killing the process.
* ``replication-lag`` — data-plane-only partition: record forwarding
  and WAL/snapshot pulls fail but heartbeats still flow, so a
  follower *knows* how far behind it is.  Drives deterministic
  ``max_lag`` bounded-staleness tests.

Faults are armed from the environment (``REPRO_FAULTS`` — comma list
of point names, each optionally suffixed ``:once`` — plus
``REPRO_FAULT_LATENCY_MS``) or the ``repro serve --faults`` flag, so a
chaos test arms a subprocess without code changes.  A production
deployment simply never sets them; an unarmed injector's checks are
dictionary misses.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

CRASH_BEFORE_WAL_APPEND = "crash-before-wal-append"
CRASH_AFTER_WAL_APPEND = "crash-after-wal-append"
CRASH_IN_SNAPSHOT = "crash-in-snapshot"
DROP_CONNECTION = "drop-connection"
LATENCY = "latency"
PARTITION_REPLICATION = "partition-replication"
REPLICATION_LAG = "replication-lag"

FAULT_POINTS = (
    CRASH_BEFORE_WAL_APPEND,
    CRASH_AFTER_WAL_APPEND,
    CRASH_IN_SNAPSHOT,
    DROP_CONNECTION,
    LATENCY,
    PARTITION_REPLICATION,
    REPLICATION_LAG,
)

FAULTS_ENV = "REPRO_FAULTS"
LATENCY_ENV = "REPRO_FAULT_LATENCY_MS"

_ALWAYS = -1
CRASH_EXIT_CODE = 137  # what 128+SIGKILL reads as: died without cleanup


class FaultInjector:
    """Armed fault points, consulted by the server and the WAL.

    ``spec`` is a comma-separated list of fault-point names; a name
    suffixed ``:once`` disarms itself after its first firing (so a
    restarted process — same environment — does not crash again at the
    same point, which is exactly what the recovery chaos tests need).
    """

    def __init__(self, spec: str = "", latency_ms: float = 0.0):
        self._armed: dict[str, int] = {}
        self.latency_ms = latency_ms
        self.latency_holds = False
        self.fired: dict[str, int] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, modifier = item.partition(":")
            if name not in FAULT_POINTS:
                raise ValueError(
                    f"unknown fault point {name!r}; expected one of "
                    f"{', '.join(FAULT_POINTS)}"
                )
            if modifier == "once":
                self._armed[name] = 1
            elif modifier == "hold":
                if name != LATENCY:
                    raise ValueError(
                        f"fault modifier ':hold' only applies to "
                        f"{LATENCY!r}, got {name!r}"
                    )
                self._armed[name] = _ALWAYS
                self.latency_holds = True
            elif modifier == "":
                self._armed[name] = _ALWAYS
            else:
                raise ValueError(
                    f"unknown fault modifier {modifier!r} on {name!r}; "
                    f"only ':once' and ':hold' are supported"
                )

    @classmethod
    def from_env(cls, environ=os.environ) -> "FaultInjector":
        spec = environ.get(FAULTS_ENV, "")
        latency = float(environ.get(LATENCY_ENV, "0") or "0")
        return cls(spec, latency_ms=latency)

    def __bool__(self) -> bool:
        return bool(self._armed)

    def trip(self, name: str) -> bool:
        """Whether ``name`` fires now; consumes a ``:once`` arming."""
        remaining = self._armed.get(name)
        if remaining is None:
            return False
        if remaining != _ALWAYS:
            if remaining <= 0:
                return False
            self._armed[name] = remaining - 1
        self.fired[name] = self.fired.get(name, 0) + 1
        return True

    def crash_point(self, name: str) -> None:
        """Die here — no flushes, no atexit — when ``name`` is armed."""
        if self.trip(name):
            sys.stderr.write(f"fault injected: {name} (os._exit)\n")
            sys.stderr.flush()
            os._exit(CRASH_EXIT_CODE)

    def latency_seconds(self) -> float:
        """Injected dispatch delay, or 0.0 when the point is unarmed."""
        if self.latency_ms > 0 and self.trip(LATENCY):
            return self.latency_ms / 1000.0
        return 0.0

    def stats(self) -> dict[str, object]:
        return {
            "armed": sorted(self._armed),
            "fired": dict(self.fired),
            "latency_ms": self.latency_ms,
            "latency_holds": self.latency_holds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector(armed={sorted(self._armed)})"


NO_FAULTS = FaultInjector()
"""The shared unarmed injector — every check is a dict miss."""
