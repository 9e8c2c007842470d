"""Per-tenant request coalescing for concurrent ``implies`` traffic.

The serving cost model: many concurrent clients ask one tenant
implication questions, and at any event-loop tick several of those
questions are *pending at once* — frequently the same hot targets.
Dispatching each request separately pays per request for target
parsing, validation, routing, and answer construction even when the
compiled :class:`~repro.core.reach_index.ReachIndex` makes the
decision itself O(1).

A :class:`Coalescer` batches instead: ``submit`` enqueues the request
and schedules exactly one flush with ``loop.call_soon``, so every
request that arrives in the same event-loop tick lands in one batch.
The flush runs the batch as a single pass over the session — one
parse/decide per *unique* ``(target, semantics)`` pair, with the
resulting :class:`~repro.engine.answer.Answer` fanned back out to
every waiting future (duplicates share the answer object).  Because
the whole batch executes between two loop ticks, no mutation can
interleave: every answer in a batch carries the same session version.

Mutations order through :meth:`barrier` — flush whatever is pending,
*then* mutate — so a submit/mutate/submit program observes exactly the
verdicts, versions, and witness chains sequential per-call execution
would produce (pinned by the hypothesis property suite).

The coalescer is deliberately transport-free: the HTTP server drives
it from request handlers, the speed-up floors from simulated client
tasks, and the property tests from scripted interleavings.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional, Union

from repro.deps.base import Dependency
from repro.engine.answer import Answer, Semantics
from repro.engine.deadline import Deadline, DeadlineLike, coerce_deadline
from repro.engine.session import ReasoningSession
from repro.obs.metrics import Histogram
from repro.obs.tracing import Trace

_BatchKey = tuple[str, Semantics]

_BATCH_SIZE_BUCKETS = tuple(float(2**i) for i in range(12))
"""Batch-size histogram buckets: 1, 2, 4, ... 2048 requests."""


class Coalescer:
    """Batches one tenant's concurrent implication requests per tick.

    With ``degrade=True`` (the serving default) a decision that blows
    its deadline or an engine budget resolves to a *degraded*
    ``verdict=None`` answer instead of raising — overload shows up as
    an honest "unknown", not a 4xx/5xx.
    """

    def __init__(
        self,
        session: ReasoningSession,
        degrade: bool = False,
        batch_sizes: Optional[Histogram] = None,
    ):
        self.session = session
        self.degrade = degrade
        self._pending: dict[_BatchKey, asyncio.Future] = {}
        self._deadlines: dict[_BatchKey, Optional[Deadline]] = {}
        # Traced waiters only: ``(trace, submit_time)`` per key, first
        # entry the payer.  Untraced traffic never touches this dict.
        self._waiters: dict[_BatchKey, list[tuple[Trace, float]]] = {}
        self._pending_count = 0
        self._flush_scheduled = False
        self.requests = 0
        self.batches = 0
        self.unique_decides = 0
        self.barrier_flushes = 0
        self.degraded = 0
        self.batch_sizes = (
            batch_sizes
            if batch_sizes is not None
            else Histogram(
                "repro_coalescer_batch_size", buckets=_BATCH_SIZE_BUCKETS
            )
        )

    # -- the request side --------------------------------------------------

    def submit(
        self,
        target: Union[Dependency, str],
        semantics: Union[Semantics, str] = Semantics.UNRESTRICTED,
        deadline: DeadlineLike = None,
        trace: Optional[Trace] = None,
    ) -> "asyncio.Future[Answer]":
        """Enqueue one ``implies`` question; resolves on the next tick.

        Requests submitted before the flush runs join the same batch;
        textually identical targets under the same semantics share *one
        future* (and therefore one parse, one decision, and one
        :class:`Answer` object).  When coalesced requests carry
        different deadlines the shared decision runs under the most
        generous one — no deadline at all if any request had none,
        otherwise the latest expiry — so no caller gets a degraded
        answer because a stranger's tighter deadline rode along.  Must
        be called on a running event loop.

        A ``trace`` enrolls the request in the batch's span
        accounting: the *first* traced submitter of a key is the payer
        and receives the ``decide`` span; every later traced submitter
        receives a ``coalesce-wait`` span naming the payer's trace id
        (``paid_by``) — the recorded evidence of who actually ran the
        decision a shared future resolved from.
        """
        semantics = Semantics(semantics)
        deadline = coerce_deadline(deadline)
        key = (str(target) if isinstance(target, Dependency) else target,
               semantics)
        future = self._pending.get(key)
        if future is None:
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            self._pending[key] = future
            self._deadlines[key] = deadline
            if not self._flush_scheduled:
                self._flush_scheduled = True
                loop.call_soon(self.flush)
        else:
            merged = self._deadlines.get(key)
            if merged is not None and (
                deadline is None or deadline.expires_at > merged.expires_at
            ):
                self._deadlines[key] = deadline
        if trace is not None:
            self._waiters.setdefault(key, []).append(
                (trace, time.perf_counter())
            )
        self.requests += 1
        self._pending_count += 1
        return future

    # -- the batch side ----------------------------------------------------

    def flush(self) -> None:
        """Decide every pending request in one pass, fan answers out.

        A target that fails to parse or validate resolves only its own
        shared future with the exception — one malformed request never
        poisons the rest of the batch.  Runs synchronously on the loop,
        so the batch is atomic with respect to mutations.
        """
        self._flush_scheduled = False
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        deadlines, self._deadlines = self._deadlines, {}
        waiters, self._waiters = (
            (self._waiters, {}) if self._waiters else (None, self._waiters)
        )
        self.batch_sizes.observe(self._pending_count)
        self._pending_count = 0
        self.batches += 1
        session = self.session
        for (text, semantics), future in pending.items():
            if future.done():
                continue
            traced = waiters.get((text, semantics)) if waiters else None
            decide_start = time.perf_counter() if traced else 0.0
            try:
                answer = session.implies(
                    text, semantics,
                    deadline=deadlines.get((text, semantics)),
                    degrade=self.degrade,
                )
            except Exception as exc:  # noqa: BLE001 - fanned to callers
                future.set_exception(exc)
                continue
            self.unique_decides += 1
            if answer.degraded:
                self.degraded += 1
            if traced:
                self._record_spans(text, traced, decide_start)
            future.set_result(answer)

    @staticmethod
    def _record_spans(
        text: str, traced: list[tuple[Trace, float]], decide_start: float
    ) -> None:
        """Attribute one shared decide to its payer; spanify waiters."""
        done = time.perf_counter()
        payer = traced[0][0]
        payer.add_span(
            "decide",
            done - decide_start,
            offset=decide_start - payer.t0,
            target=text,
            shared=len(traced),
        )
        for waiter, submitted in traced[1:]:
            waiter.add_span(
                "coalesce-wait",
                done - submitted,
                offset=submitted - waiter.t0,
                target=text,
                paid_by=payer.trace_id,
            )

    def barrier(self) -> None:
        """Flush pending requests before an operation that must order.

        Mutations (and anything else that reads "the premises as of
        now") call this first, so requests submitted *before* the
        mutation are answered against the pre-mutation premises —
        exactly as sequential execution would.
        """
        if self._pending:
            self.barrier_flushes += 1
            self.flush()

    @property
    def deduplicated(self) -> int:
        """Requests answered from another request's decision."""
        return self.requests - self.unique_decides - self._pending_count

    def stats(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "unique_decides": self.unique_decides,
            "deduplicated": self.deduplicated,
            "barrier_flushes": self.barrier_flushes,
            "pending": self._pending_count,
            "degraded": self.degraded,
        }
