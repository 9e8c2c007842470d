"""Differential properties: compiled kernels vs the retained naive code.

Every compiled hot path keeps its textbook formulation in-tree
(``successors_naive``, ``decide_ind_naive``, ``attribute_closure_naive``,
the ``"naive"`` chase strategy).  These properties pin the kernels to
them on random schemas and premise sets: same verdicts, same witness
chains, same BFS statistics, same closures, and chase runs that fire
the same events round for round.
"""

from collections import Counter
from itertools import permutations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fd_closure import (
    FDClosureKernel,
    attribute_closure,
    attribute_closure_naive,
)
from repro.core.fdind_chase import AddEvent, MergeEvent, chase_implies
from repro.core.ind_decision import (
    decide_ind,
    decide_ind_naive,
    successors,
    successors_naive,
)
from repro.core.ind_kernel import KernelIndex, compile_ind
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.exceptions import ChaseBudgetExceeded

from tests.properties.strategies import attribute_subsequences, fds, inds, schemas

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    derandomize=True,
)


@COMMON
@given(schemas(), st.data())
def test_kernel_successors_match_naive(schema, data):
    """Kernel-compiled successors: same moves, same order, same links."""
    premises = [data.draw(inds(schema)) for _ in range(data.draw(st.integers(0, 6)))]
    rel = data.draw(st.sampled_from(list(schema)))
    attrs = data.draw(attribute_subsequences(rel))
    expression = (rel.name, attrs)
    assert list(successors(expression, premises)) == list(
        successors_naive(expression, premises)
    )


@COMMON
@given(schemas(), st.data())
def test_kernel_decision_matches_naive(schema, data):
    """Kernel BFS == naive BFS: verdict, witness chain, links, and the
    explored/frontier statistics (the searches expand identically)."""
    premises = [data.draw(inds(schema)) for _ in range(data.draw(st.integers(0, 6)))]
    target = data.draw(inds(schema))
    fast = decide_ind(target, KernelIndex(premises), max_nodes=50_000)
    slow = decide_ind_naive(target, premises, max_nodes=50_000)
    assert fast.implied == slow.implied
    assert fast.chain == slow.chain
    assert fast.links == slow.links
    assert fast.explored == slow.explored
    assert fast.frontier_peak == slow.frontier_peak


@COMMON
@given(schemas(), st.data())
def test_kernel_closure_matches_naive(schema, data):
    """The [BB] counter closure == the quadratic fixpoint."""
    fd_list = [data.draw(fds(schema)) for _ in range(data.draw(st.integers(0, 8)))]
    rel = data.draw(st.sampled_from(list(schema)))
    attrs = data.draw(st.sets(st.sampled_from(list(rel.attributes)), max_size=rel.arity))
    assert attribute_closure(attrs, fd_list, rel.name) == attribute_closure_naive(
        attrs, fd_list, rel.name
    )
    # and without the relation filter (all FDs participate)
    assert attribute_closure(attrs, fd_list) == attribute_closure_naive(
        attrs, fd_list
    )


@COMMON
@given(schemas(), st.data())
def test_compiled_kernel_is_reusable_across_queries(schema, data):
    """One compiled FD kernel answers every query the one-shot form
    answers (what PremiseIndex relies on)."""
    fd_list = [data.draw(fds(schema)) for _ in range(data.draw(st.integers(0, 8)))]
    rel = data.draw(st.sampled_from(list(schema)))
    relevant = [fd for fd in fd_list if fd.relation == rel.name]
    kernel = FDClosureKernel(relevant)
    for _ in range(3):
        attrs = data.draw(
            st.sets(st.sampled_from(list(rel.attributes)), max_size=rel.arity)
        )
        assert kernel.closure(attrs) == attribute_closure_naive(
            attrs, fd_list, rel.name
        )


@COMMON
@given(schemas(), st.data())
def test_ind_kernel_compilation_is_memoized(schema, data):
    """Compiling the same premise twice returns the same kernel object
    (the property that lets sessions share compilation)."""
    premise = data.draw(inds(schema))
    assert compile_ind(premise) is compile_ind(premise)


def _event_signature(events):
    """Order-free summary of a chase event log: how many tuples each
    dependency added to each relation, and how many merges each
    dependency performed.  Null ids differ between strategies (rows
    are visited in different orders), so the signature abstracts them
    away while still pinning which rules fired how often."""
    return Counter(
        (type(event).__name__, str(event.dependency),
         event.relation if isinstance(event, AddEvent) else None)
        for event in events
    )


@COMMON
@given(schemas(), st.data())
def test_semi_naive_chase_matches_naive(schema, data):
    """Semi-naive chase == naive chase on random mixed implication
    questions: same verdict, same rounds, same per-relation instance
    sizes, and the same event-log signature."""
    premises = [data.draw(inds(schema)) for _ in range(data.draw(st.integers(0, 3)))]
    premises += [data.draw(fds(schema)) for _ in range(data.draw(st.integers(0, 3)))]
    if data.draw(st.booleans()):
        target = data.draw(inds(schema))
    else:
        target = data.draw(fds(schema))

    budget = dict(max_rounds=25, max_tuples=4000)
    try:
        naive = chase_implies(schema, premises, target, strategy="naive", **budget)
    except ChaseBudgetExceeded:
        naive = None
    try:
        semi = chase_implies(schema, premises, target, strategy="semi-naive", **budget)
    except ChaseBudgetExceeded:
        semi = None
    if naive is None or semi is None:
        # A diverging chase must diverge under both strategies.
        assert naive is None and semi is None
        return

    assert semi.implied == naive.implied
    assert semi.outcome.failed == naive.outcome.failed
    assert semi.outcome.rounds == naive.outcome.rounds
    semi_sizes = {
        rel: len(rows) for rel, rows in semi.outcome.instance.relations.items()
    }
    naive_sizes = {
        rel: len(rows) for rel, rows in naive.outcome.instance.relations.items()
    }
    assert semi_sizes == naive_sizes
    assert _event_signature(semi.outcome.instance.events) == _event_signature(
        naive.outcome.instance.events
    )
    # Both fixpoints satisfy the premises they were chased with.
    if semi.outcome.reached_fixpoint and not semi.outcome.failed:
        db = semi.outcome.instance.to_database()
        assert db.satisfies_all(premises)


@st.composite
def shared_side_premises(draw, schema):
    """Premises that make the compiled chase share count tables.

    Two INDs with one right side (relation and positions) but different
    left sides share a projection-count table; an arity-1 IND into the
    same relation makes an ``itemgetter`` return a bare value; and an
    FD over that relation (sometimes with an empty left side) merges
    values, rewriting rows the shared table counts.  Extra random
    premises and a random rule order ride along.
    """
    rels = list(schema)
    dst = draw(st.sampled_from(rels))
    arity = draw(st.integers(1, dst.arity))
    rhs = tuple(draw(st.permutations(list(dst.attributes)))[:arity])
    left_sides = [
        (rel.name, attrs)
        for rel in rels
        for attrs in permutations(rel.attributes, arity)
    ]
    first = draw(st.sampled_from(left_sides))
    second = draw(st.sampled_from([side for side in left_sides if side != first]))
    premises = [IND(*first, dst.name, rhs), IND(*second, dst.name, rhs)]
    unary_src = draw(st.sampled_from(rels))
    premises.append(IND(
        unary_src.name, (draw(st.sampled_from(list(unary_src.attributes))),),
        dst.name, (draw(st.sampled_from(list(dst.attributes))),),
    ))
    order = draw(st.permutations(list(dst.attributes)))
    lhs_size = 0 if draw(st.booleans()) else draw(st.integers(0, dst.arity - 1))
    premises.append(FD(dst.name, order[:lhs_size], (order[lhs_size],)))
    premises += [draw(inds(schema)) for _ in range(draw(st.integers(0, 2)))]
    premises += [draw(fds(schema)) for _ in range(draw(st.integers(0, 1)))]
    return draw(st.permutations(premises))


@COMMON
@given(schemas(min_arity=2), st.data())
def test_compiled_chase_with_shared_tables_matches_naive(schema, data):
    """The compiled semi-naive chase (``itemgetter`` projections, count
    tables shared by INDs with one right side) == the naive chase:
    same verdict, rounds, per-relation sizes and event signature."""
    premises = data.draw(shared_side_premises(schema))
    if data.draw(st.booleans()):
        target = data.draw(inds(schema))
    else:
        target = data.draw(fds(schema))

    budget = dict(max_rounds=25, max_tuples=4000)
    outcomes = []
    for strategy in ("naive", "semi-naive"):
        try:
            outcomes.append(chase_implies(
                schema, premises, target, strategy=strategy, **budget
            ))
        except ChaseBudgetExceeded:
            outcomes.append(None)
    naive, semi = outcomes
    if naive is None or semi is None:
        assert naive is None and semi is None
        return

    assert semi.implied == naive.implied
    assert semi.outcome.failed == naive.outcome.failed
    assert semi.outcome.rounds == naive.outcome.rounds
    assert {
        rel: len(rows) for rel, rows in semi.outcome.instance.relations.items()
    } == {
        rel: len(rows) for rel, rows in naive.outcome.instance.relations.items()
    }
    assert _event_signature(semi.outcome.instance.events) == _event_signature(
        naive.outcome.instance.events
    )
