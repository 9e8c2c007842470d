"""Per-request tracing for the serving stack.

A :class:`Trace` is minted per HTTP request (the id comes from the
client's ``X-Trace-Id`` header when present, so distributed callers
can stitch waterfalls across hops) and threaded *explicitly* through
the layers that do work on the request's behalf: protocol parse, the
coalescer (which records which trace *paid* for a shared decide),
``Tenant.mutate``, the WAL append/fsync, and per-follower replication
shipping.  Every instrumented site guards with ``if trace is not
None`` so un-traced callers — WAL recovery, replication apply, and
code that drives the coalescer directly — pay nothing.

Spans are flat ``(name, offset, duration, meta)`` records relative to
the trace's start; :meth:`Trace.to_json` renders the waterfall the
``?trace=1`` echo and ``/debug/traces`` return.  The trace id also
rides the WAL record and the replication envelope, so a follower's
applied record links back to the originating request — that link is
cross-process, by id, not by object.

:class:`TraceRing` keeps the last N finished traces; ``/debug/traces``
serves the slowest of them.
"""

from __future__ import annotations

import time
import uuid
from collections import deque
from typing import Optional

__all__ = ["Trace", "TraceRing", "new_trace_id"]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


class _SpanTimer:
    """Context manager recording one span into its trace."""

    __slots__ = ("_trace", "_name", "_meta", "_start")

    def __init__(self, trace: "Trace", name: str, meta: dict):
        self._trace = trace
        self._name = name
        self._meta = meta

    def __enter__(self) -> "_SpanTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._trace.add_span(
            self._name,
            time.perf_counter() - self._start,
            offset=self._start - self._trace.t0,
            **self._meta,
        )


class Trace:
    """One request's id, clock origin, and recorded spans.

    The id is minted *lazily*: a request that carries no
    ``X-Trace-Id`` header only pays the uuid cost (the single most
    expensive part of constructing a trace) if something actually
    reads the id — the ``?trace=1`` echo, a WAL record stamp, a
    replication envelope, or the debug ring's JSON rendering.
    """

    __slots__ = ("_trace_id", "started", "t0", "duration", "spans")

    def __init__(self, trace_id: Optional[str] = None):
        self._trace_id = trace_id or None
        self.started = time.time()
        self.t0 = time.perf_counter()
        self.duration: Optional[float] = None
        self.spans: list[tuple[str, float, float, dict]] = []

    @property
    def trace_id(self) -> str:
        if self._trace_id is None:
            self._trace_id = new_trace_id()
        return self._trace_id

    def span(self, name: str, **meta) -> _SpanTimer:
        """``with trace.span("decide"): ...`` — times the block."""
        return _SpanTimer(self, name, meta)

    def add_span(
        self,
        name: str,
        seconds: float,
        offset: Optional[float] = None,
        **meta,
    ) -> None:
        """Record an externally timed span ``seconds`` long.

        ``offset`` is seconds since the trace started; when omitted the
        span is assumed to have just ended.
        """
        if offset is None:
            offset = max(0.0, time.perf_counter() - self.t0 - seconds)
        self.spans.append((name, offset, seconds, meta))

    def finish(self) -> "Trace":
        self.duration = time.perf_counter() - self.t0
        return self

    def to_json(self) -> dict:
        """The span waterfall (offsets/durations in milliseconds)."""
        duration = (
            self.duration
            if self.duration is not None
            else time.perf_counter() - self.t0
        )
        return {
            "trace_id": self.trace_id,
            "started": self.started,
            "duration_ms": duration * 1e3,
            "spans": [
                {
                    "span": name,
                    "offset_ms": offset * 1e3,
                    "duration_ms": seconds * 1e3,
                    **meta,
                }
                for name, offset, seconds, meta in self.spans
            ],
        }


class TraceRing:
    """The last N finished traces, served slowest-first."""

    def __init__(self, capacity: int = 256):
        self._ring: deque[Trace] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, trace: Trace) -> None:
        if trace.duration is None:
            trace.finish()
        self._ring.append(trace)
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    def slowest(self, limit: int = 10) -> list[Trace]:
        return sorted(
            self._ring, key=lambda trace: trace.duration or 0.0, reverse=True
        )[:limit]

    def to_json(self, limit: int = 10) -> dict:
        return {
            "recorded": self.recorded,
            "capacity": self._ring.maxlen,
            "traces": [trace.to_json() for trace in self.slowest(limit)],
        }
