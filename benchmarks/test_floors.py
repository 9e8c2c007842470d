"""Speed-up floors: each optimized path against the code it replaced.

``perfbench/`` measures the served program end to end, and performance
changes are judged by it.  This module guards the ratios the engine and
serving layers were built to deliver.  Each row runs the fast side and
its retained reference in one process on fixed, seeded inputs, so
machine speed divides out of the ratio.  Where the paper has a
procedure, it is the reference: Corollary 3.2's BFS as
``decide_ind_naive``, and the naive chase.

A measure first asserts that both sides give the same answers.  It then
returns ``{cost: (fast, reference)}``.  Each row of :data:`FLOORS`
names a measure, one of its costs and a bound, and :func:`test_floor`
requires ``reference > bound * fast`` for that cost.  A measure with
two costs backs two rows, so every bound passes or fails on its own.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import threading
import time

import pytest

from repro.core.fdind_chase import ChaseEngine, ChaseInstance
from repro.core.ind_decision import decide_ind, decide_ind_naive, index_by_lhs
from repro.core.ind_kernel import KernelIndex
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.discovery import discover_inds
from repro.discovery.report import PhaseCounters
from repro.engine import ReasoningSession
from repro.io import bundle_from_payload, patch_from_payload, schema_to_dict
from repro.model.builders import database
from repro.model.schema import DatabaseSchema, RelationSchema
from repro.obs import MetricsRegistry, Trace, TraceRing
from repro.serve import (
    BackgroundServer,
    Coalescer,
    FaultInjector,
    ServeClient,
    StateDir,
    TenantRegistry,
)
from repro.serve.coalescer import _BATCH_SIZE_BUCKETS
from repro.serve.faults import LATENCY
from repro.workloads.random_deps import random_inds

SEED = 19841982


def best_seconds(fn, repeats=15, setup=None):
    """Least wall time of ``fn`` over ``repeats`` runs.

    Every slower sample is the same code plus scheduler noise, so the
    minimum is the stablest estimate.  ``setup`` runs before each run,
    outside the clock.
    """
    best = float("inf")
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def decision_workload():
    """500 premises over 100 chained relations plus a quiet target.

    The chain keeps the reachable expression set deep; the seeded
    noise keeps the buckets busy.  The target is *not* implied, so a
    decision explores the whole reachable set.
    """
    rng = random.Random(SEED)
    relations = 100
    busy = [RelationSchema(f"R{i}", ("A", "B", "C")) for i in range(relations)]
    schema = DatabaseSchema(busy + [RelationSchema("QUIET", ("A", "B"))])
    chain = [
        IND(f"R{i}", ("A", "B"), f"R{i+1}", ("A", "B"))
        for i in range(relations - 1)
    ]
    noise = random_inds(
        rng, DatabaseSchema(busy), count=500 - len(chain), max_arity=2
    )
    target = IND("R0", ("A",), "QUIET", ("A",))
    targets = [IND("R0", ("A",), f"R{i}", ("A",)) for i in range(1, 40)]
    return schema, chain + noise, target, targets


def serving_workload():
    """The decision workload plus a mixed hit/miss target pool.

    The pool mixes shallow and deep chain hits, misses into the quiet
    relation (a full exploration for a per-query BFS), and several
    source expressions, so more than one component gets compiled.
    """
    schema, premises, _target, _targets = decision_workload()
    pool = [
        IND("R0", ("A",), f"R{i}", ("A",)) for i in (1, 5, 20, 40, 60, 80, 99)
    ]
    pool += [
        IND("R10", ("A",), "R70", ("A",)),
        IND("R25", ("B",), "R90", ("B",)),
        IND("R0", ("B",), "R50", ("B",)),
        IND("R0", ("A",), "QUIET", ("A",)),
        IND("R0", ("B",), "QUIET", ("B",)),
        IND("R40", ("A",), "QUIET", ("A",)),
        IND("R99", ("A",), "R0", ("A",)),
        IND("R99", ("B",), "QUIET", ("B",)),
    ]
    return schema, premises, pool


def chase_workload():
    """A 40-relation FD+IND chain ordered against the application order.

    Each round propagates the frontier exactly one hop, so the run
    takes ~40 rounds: the regime where per-round rescans dominate the
    naive engine.
    """
    relations = 40
    schema = DatabaseSchema(
        [RelationSchema(f"R{i}", ("A", "B")) for i in range(relations)]
    )
    deps = [
        IND(f"R{i}", ("A", "B"), f"R{i+1}", ("A", "B"))
        for i in reversed(range(relations - 1))
    ]
    deps += [FD(f"R{i}", ("A",), ("B",)) for i in range(relations)]

    def build_instance() -> ChaseInstance:
        instance = ChaseInstance(schema)
        values = [instance.fresh_null() for _ in range(6)]
        instance.add_row("R0", [values[0], values[1]])
        instance.add_row("R0", [values[2], values[3]])
        instance.add_row("R0", [values[0], values[4]])
        return instance

    return schema, deps, build_instance


def discovery_workload():
    """A clique of six identical 300-row relations.

    Column value spaces are disjoint, so every cross-relation IND on
    matching attribute sequences holds and nothing else does.  The
    apriori lift then generates many n-ary candidates that already
    accepted INDs imply, which is what implication pruning skips.
    """
    base = [(j, 10_000 + j, 20_000 + (j % 6)) for j in range(300)]
    return database(
        {f"R{i}": ("A", "B", "C") for i in range(6)},
        {f"R{i}": base for i in range(6)},
    )


def bundle_of(schema, premises):
    return {
        "schema": schema_to_dict(schema),
        "dependencies": [str(dep) for dep in premises],
    }


def warm_serving_session():
    """A session over :func:`serving_workload` with every pool
    component compiled, and the pool as DSL text (the wire shape)."""
    schema, premises, pool = serving_workload()
    session = ReasoningSession(schema, premises)
    session.implies_all(pool)
    return session, [str(target) for target in pool]


READ_CLIENTS, READS, HOT_TARGETS = 48, 40, 4


def read_burst(texts, make_coalescer, request):
    """48 concurrent clients of 40 reads each, in one event loop.

    Clients cluster on 4 hot targets at a time (a zipfian shape).
    ``request(coalescer, text)`` answers one read; the result is each
    client's list of verdicts.
    """
    async def main():
        coalescer = make_coalescer()

        async def client(offset):
            start = offset % HOT_TARGETS
            return [
                (await request(coalescer, texts[(start + i) % len(texts)]))
                .verdict
                for i in range(READS)
            ]

        return await asyncio.gather(
            *(client(offset) for offset in range(READ_CLIENTS))
        )

    return asyncio.run(main())


async def submit(coalescer, text):
    return await coalescer.submit(text)


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------


def kernel_decide():
    """``decide_ind`` on a prebuilt ``KernelIndex`` against the naive
    BFS, on the 500-premise miss (both sides explore everything)."""
    _schema, premises, target, _targets = decision_workload()
    kernels = KernelIndex(premises)
    naive_index = index_by_lhs(premises)
    fast = decide_ind(target, kernels)
    slow = decide_ind_naive(target, naive_index)
    assert fast.implied is slow.implied is False
    assert fast.explored == slow.explored
    return {"seconds": (
        best_seconds(lambda: decide_ind(target, kernels)),
        best_seconds(lambda: decide_ind_naive(target, naive_index)),
    )}


def chase_fixpoint():
    """The semi-naive chase against the naive rescan, to fixpoint."""
    schema, deps, build_instance = chase_workload()
    semi = ChaseEngine(schema, deps, strategy="semi-naive")
    naive = ChaseEngine(schema, deps, strategy="naive")
    fast = semi.run(build_instance())
    slow = naive.run(build_instance())
    assert fast.reached_fixpoint and slow.reached_fixpoint
    assert fast.rounds == slow.rounds
    assert fast.instance.total_tuples() == slow.instance.total_tuples()
    return {
        "seconds": (
            best_seconds(lambda: semi.run(build_instance())),
            best_seconds(lambda: naive.run(build_instance())),
        ),
        "rows_scanned": (fast.rows_scanned, slow.rows_scanned),
    }


def reach_hot():
    """2,000 ``implies`` calls on a warm session against the kernel BFS
    over the same queries, with the kernel edge memos hot too."""
    schema, premises, pool = serving_workload()
    session = ReasoningSession(schema, premises)
    kernels = session.index.ind_kernels
    served = [answer.verdict for answer in session.implies_all(pool)]
    assert served == [decide_ind(target, kernels).implied for target in pool]
    compiles = session.index.reach_index.compiles
    queries = [pool[i % len(pool)] for i in range(2_000)]

    def hot():
        implies = session.implies
        for target in queries:
            implies(target)

    def bfs():
        for target in queries:
            decide_ind(target, kernels)

    costs = {
        "seconds": (best_seconds(hot, repeats=3), best_seconds(bfs, repeats=3))
    }
    assert session.index.reach_index.compiles == compiles
    return costs


def incremental_add():
    """``add`` plus a 39-target re-query on a warm session, against
    rebuilding the session from re-parsed premises."""
    schema, premises, _target, targets = decision_workload()
    schema = schema.extended_with(RelationSchema("QUIET2", ("A", "B")))
    quiet = IND("QUIET", ("A",), "QUIET2", ("A",))
    session = ReasoningSession(schema, premises)
    session.implies_all(targets)

    def retract_quiet():
        if quiet in session.dependencies:
            session.retract(quiet)

    def add_and_requery():
        session.add(quiet)
        return [answer.verdict for answer in session.implies_all(targets)]

    def rebuild_and_requery():
        # A rebuild reloads the bundle: new IND objects, cold kernel
        # memos.  Reusing the live objects would understate its cost.
        fresh = [
            IND(ind.lhs_relation, ind.lhs_attributes,
                ind.rhs_relation, ind.rhs_attributes)
            for ind in premises + [quiet]
        ]
        rebuilt = ReasoningSession(schema, fresh)
        return [answer.verdict for answer in rebuilt.implies_all(targets)]

    assert add_and_requery() == rebuild_and_requery()
    return {"seconds": (
        best_seconds(add_and_requery, repeats=9, setup=retract_quiet),
        best_seconds(rebuild_and_requery, repeats=9),
    )}


def discovery_pruning():
    """Implication-pruned n-ary IND discovery against validating every
    candidate on the data."""
    db = discovery_workload()
    pruned, baseline = PhaseCounters(), PhaseCounters()
    found = discover_inds(
        db, counters=pruned, unary_counters=PhaseCounters(), prune=True
    )
    expected = discover_inds(
        db, counters=baseline, unary_counters=PhaseCounters(), prune=False
    )
    assert set(found) == set(expected)
    assert pruned.candidates_generated == baseline.candidates_generated
    assert baseline.pruned_by_implication == 0
    # Every skipped validation is accounted for by an implication hit.
    assert (
        pruned.validated + pruned.pruned_by_implication == baseline.validated
    )
    return {
        "validated": (pruned.validated, baseline.validated),
        "rows_scanned": (pruned.rows_scanned, baseline.rows_scanned),
    }


def coalescing():
    """A coalesced 48-client read burst against per-request dispatch of
    the same stream on the same warm session."""
    session, texts = warm_serving_session()

    async def direct(_coalescer, text):
        answer = session.implies(text)
        await asyncio.sleep(0)  # one loop yield per request
        return answer

    def burst(request):
        return read_burst(texts, lambda: Coalescer(session), request)

    assert burst(submit) == burst(direct)
    return {"seconds": (
        best_seconds(lambda: burst(submit), repeats=3),
        best_seconds(lambda: burst(direct), repeats=3),
    )}


def recovery():
    """Booting a durable tenant from its snapshot plus WAL tail, against
    replaying its whole 1,000-mutation history from the bundle."""
    schema, premises, pool = serving_workload()
    bundle = bundle_of(schema, premises)
    toggles = [str(IND("QUIET", ("A",), f"R{i}", ("A",))) for i in range(50)]
    history = [
        (kind, dep)
        for _round in range(10)
        for dep in toggles
        for kind in ("add", "retract")
    ]
    with tempfile.TemporaryDirectory(prefix="repro-floors-") as root:
        registry = TenantRegistry(state_dir=StateDir(root, snapshot_every=16))
        tenant = registry.create("floors", schema, premises)
        for kind, dep in history:
            tenant.mutate(kind, [dep])
        assert tenant.store.stats()["appends_since_snapshot"] <= 16
        registry.close()

        def boot():
            booted = TenantRegistry(
                state_dir=StateDir(root, snapshot_every=16)
            )
            try:
                session = booted.get("floors").session
                verdicts = [a.verdict for a in session.implies_all(pool)]
                return session.premise_hash, verdicts
            finally:
                booted.close()

        def replay():
            loaded_schema, deps, db = bundle_from_payload(bundle)
            session = ReasoningSession(loaded_schema, deps, db=db)
            for kind, dep in history:
                add, retract = patch_from_payload({kind: [dep]}, loaded_schema)
                if retract:
                    session.retract(retract)
                if add:
                    session.add(add)
            verdicts = [a.verdict for a in session.implies_all(pool)]
            return session.premise_hash, verdicts

        assert boot() == replay()
        return {"seconds": (
            best_seconds(boot, repeats=3), best_seconds(replay, repeats=3)
        )}


def replication():
    """Three clients spread over a primary and two followers, against
    all three on the primary.

    Every node arms ``latency:hold``, so each request occupies its
    node's event loop for 10 ms the way handler compute would.  One
    node is then a real throughput ceiling whatever the core count,
    and the ratio measures read offload across nodes.
    """
    schema, premises, pool = serving_workload()
    texts = [str(target) for target in pool]

    def hold():
        return FaultInjector(f"{LATENCY}:hold", latency_ms=10.0)

    def verdicts(port):
        with ServeClient(port=port) as client:
            answers = client.implies_all("floors", texts)["answers"]
        return [answer["verdict"] for answer in answers]

    def drive(ports):
        def client(port):
            with ServeClient(port=port) as reader:
                for _ in range(30):
                    reader.implies_all("floors", texts)

        threads = [
            threading.Thread(target=client, args=(ports[i % len(ports)],))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

    primary = BackgroundServer(faults=hold()).start()
    followers = []
    try:
        with ServeClient(port=primary.port) as client:
            client.create_tenant("floors", bundle_of(schema, premises))
        for _ in range(2):
            followers.append(BackgroundServer(
                replica_of=f"127.0.0.1:{primary.port}",
                heartbeat=0.1,
                failover_after=0,  # read replicas: never promote
                faults=hold(),
            ).start())
        deadline = time.monotonic() + 30
        while not all("floors" in node.server.registry.tenants
                      for node in followers):
            assert time.monotonic() < deadline, "follower bootstrap timed out"
            time.sleep(0.02)
        ports = [primary.port] + [node.port for node in followers]
        # Also compiles every node's index outside the clock.
        answers = [verdicts(port) for port in ports]
        assert answers == [answers[0]] * len(ports)
        return {"seconds": (
            best_seconds(lambda: drive(ports), repeats=3),
            best_seconds(lambda: drive([primary.port]), repeats=3),
        )}
    finally:
        for node in followers:
            node.stop()
        primary.stop()


def observability():
    """The cost full tracing and metrics add to one request, against
    what one served HTTP ``implies`` costs.

    The added cost is the traced coalesced read burst minus the bare
    one, per request: a ``Trace`` per request, coalescer span
    attribution, latency and batch-size histograms, and the trace ring.
    """
    session, texts = warm_serving_session()
    metrics, ring = MetricsRegistry(), TraceRing()
    latency = metrics.histogram("repro_request_seconds", op="implies")
    batch_sizes = metrics.histogram(
        "repro_coalescer_batch_size", buckets=_BATCH_SIZE_BUCKETS
    )

    async def traced(coalescer, text):
        trace = Trace()
        start = time.perf_counter()
        answer = await coalescer.submit(text, trace=trace)
        latency.observe(time.perf_counter() - start)
        ring.record(trace)
        return answer

    def bare_burst():
        return read_burst(texts, lambda: Coalescer(session), submit)

    def traced_burst():
        return read_burst(
            texts, lambda: Coalescer(session, batch_sizes=batch_sizes), traced
        )

    requests = READ_CLIENTS * READS
    assert traced_burst() == bare_burst()
    assert ring.recorded == latency.count == requests
    added = (
        best_seconds(traced_burst, repeats=2)
        - best_seconds(bare_burst, repeats=2)
    ) / requests

    with BackgroundServer() as node, ServeClient(port=node.port) as http:
        http.create_tenant(
            "floors", bundle_of(session.schema, session.dependencies)
        )
        served = [http.implies("floors", text)["verdict"] for text in texts]
        assert served == [session.implies(text).verdict for text in texts]

        def drive():
            for i in range(200):
                http.implies("floors", texts[i % len(texts)])

        served_request = best_seconds(drive, repeats=2) / 200
    return {"seconds_per_request": (added, served_request)}


FLOORS = {
    # row: (measure, cost, least reference / fast ratio)
    "kernel_decide": (kernel_decide, "seconds", 3.0),
    "chase_fixpoint": (chase_fixpoint, "seconds", 2.0),
    "chase_rows_scanned": (chase_fixpoint, "rows_scanned", 5.0),
    "reach_hot": (reach_hot, "seconds", 5.0),
    "incremental_add": (incremental_add, "seconds", 5.0),
    "discovery_pruning": (discovery_pruning, "validated", 2.0),
    "discovery_rows_scanned": (discovery_pruning, "rows_scanned", 2.0),
    "coalescing": (coalescing, "seconds", 2.0),
    "recovery": (recovery, "seconds", 2.0),
    "replication": (replication, "seconds", 2.0),
    # Instrumentation adds under 5% of a served request: 20x cheaper.
    "observability": (observability, "seconds_per_request", 20.0),
}


@pytest.mark.parametrize("row", list(FLOORS))
def test_floor(row):
    measure, cost, bound = FLOORS[row]
    fast, reference = measure()[cost]
    assert reference > bound * fast, (
        f"{row}: the reference's {cost} ({reference:.4g}) must exceed "
        f"{bound}x the fast side's ({fast:.4g})"
    )
