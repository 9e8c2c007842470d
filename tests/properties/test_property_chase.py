"""Property-based tests for the chase engines and the unary engine."""

import itertools
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.finite_unary import (
    _apply_cycle_rule,
    _transitive_close,
    unary_closure,
)
from repro.core.fdind_chase import ChaseEngine, chase_database, chase_implies
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.rd import RD
from repro.engine import Engine, ReasoningSession
from repro.exceptions import ChaseBudgetExceeded, DependencyError
from repro.model.schema import DatabaseSchema, RelationSchema

from tests.properties.strategies import databases, fds, inds, schemas

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    derandomize=True,
)


@COMMON
@given(schemas(), st.data())
def test_chase_repair_satisfies_inds(schema, data):
    """Chasing a database with INDs yields a superset instance
    satisfying them (when the chase terminates)."""
    db = data.draw(databases(schema, max_tuples=3, domain=3))
    ind_list = [data.draw(inds(schema)) for _ in range(data.draw(st.integers(0, 3)))]
    try:
        repaired = chase_database(db, ind_list, max_rounds=30, max_tuples=3000)
    except ChaseBudgetExceeded:
        return  # cyclic IND sets may legitimately diverge
    assert repaired.satisfies_all(ind_list)
    # Original tuples survive (as stringified constants).
    for rel in db:
        repaired_rows = repaired.relation(rel.name).tuples
        rendered = {tuple(str(v) for v in row) for row in rel}
        assert rendered <= {
            tuple(str(v) for v in row) for row in repaired_rows
        }


def unary_premises():
    """Random unary FD/IND sets over two 2-attribute relations."""

    @st.composite
    def build(draw):
        deps = []
        for _ in range(draw(st.integers(1, 5))):
            rel = draw(st.sampled_from(["R", "S"]))
            a = draw(st.sampled_from(["A", "B"]))
            b = draw(st.sampled_from(["A", "B"]))
            if draw(st.booleans()):
                if a != b:
                    deps.append(FD(rel, (a,), (b,)))
            else:
                rel2 = draw(st.sampled_from(["R", "S"]))
                c = draw(st.sampled_from(["A", "B"]))
                ind = IND(rel, (a,), rel2, (c,))
                if not ind.is_trivial():
                    deps.append(ind)
        return deps

    return build()


@COMMON
@given(unary_premises())
def test_unary_finite_closure_contains_unrestricted(premises):
    unrestricted = unary_closure(premises, finite=False)
    finite = unary_closure(premises, finite=True)
    assert unrestricted.fds <= finite.fds
    assert unrestricted.inds <= finite.inds


@COMMON
@given(unary_premises())
def test_unary_closure_idempotent(premises):
    closure = unary_closure(premises, finite=True)
    again = unary_closure(closure.derived_dependencies(), finite=True)
    assert closure.fds <= again.fds
    assert closure.inds <= again.inds


@COMMON
@given(unary_premises(), st.data())
def test_unary_finite_engine_sound_on_models(premises, data):
    """Whatever the finite engine derives holds in every random finite
    model of the premises."""
    schema = DatabaseSchema.of(
        RelationSchema("R", ("A", "B")), RelationSchema("S", ("A", "B"))
    )
    db = data.draw(databases(schema, max_tuples=4, domain=3))
    if not db.satisfies_all(premises):
        return
    closure = unary_closure(premises, finite=True)
    for dep in closure.derived_dependencies():
        assert db.satisfies(dep), f"{dep} derived but fails"


@st.composite
def rds(draw, db_schema: DatabaseSchema):
    """A random well-formed RD over a relation with two or more columns."""
    rel = draw(st.sampled_from([r for r in db_schema if r.arity >= 2]))
    left, right = draw(st.permutations(list(rel.attributes)))[:2]
    return RD(rel.name, (left,), (right,))


def full_engine_chase(schema, premises, target, **budget):
    """``chase_implies`` with every premise's rule in every run: the
    unpruned engine the compiled, pruned one must agree with."""
    with mock.patch.object(ChaseEngine, "reaching", lambda engine, _rel: engine):
        return chase_implies(schema, premises, target, **budget)


@settings(COMMON, max_examples=150)
@given(schemas(max_relations=3, max_arity=3), st.data())
def test_session_chase_matches_a_fresh_full_engine(schema, data):
    """Every chase answer a session gives from its one compiled engine —
    pruned to the rules the target's start relation reaches — equals a
    fresh, unpruned engine's run: verdict, rounds, tuples, rows scanned,
    event log and final instance, or the same budget exit."""
    premises = [data.draw(inds(schema)) for _ in range(data.draw(st.integers(0, 4)))]
    premises += [data.draw(fds(schema)) for _ in range(data.draw(st.integers(0, 3)))]
    if any(rel.arity >= 2 for rel in schema):
        premises += [
            data.draw(rds(schema)) for _ in range(data.draw(st.integers(0, 2)))
        ]
    budget = dict(max_rounds=data.draw(st.integers(1, 6)),
                  max_tuples=data.draw(st.integers(3, 80)))
    session = ReasoningSession(schema, premises, **budget)
    for _ in range(data.draw(st.integers(1, 4))):
        target = data.draw(st.one_of(inds(schema), fds(schema)))
        if session.route(target) is not Engine.CHASE:
            continue
        try:
            oracle = full_engine_chase(schema, premises, target, **budget)
        except ChaseBudgetExceeded as expected:
            try:
                session.implies(target)
            except ChaseBudgetExceeded as exc:
                assert (str(exc), exc.rounds, exc.tuples) == (
                    str(expected), expected.rounds, expected.tuples
                )
            else:
                raise AssertionError("the session's chase stayed in budget")
            continue
        answer = session.implies(target)
        got = answer.certificate.outcome
        want = oracle.outcome
        assert answer.verdict == oracle.implied
        assert answer.stats == {"rounds": want.rounds,
                                "tuples": want.instance.total_tuples(),
                                "rows_scanned": want.rows_scanned}
        assert (got.reached_fixpoint, got.failed) == (
            want.reached_fixpoint, want.failed
        )
        assert got.instance.events == want.instance.events
        assert got.instance.relations == want.instance.relations


UNARY_SCHEMA = {rel: ("A", "B", "C", "D") for rel in ("R", "S", "T")}
"""Three relations of four columns: twelve columns in all."""


@st.composite
def unary_premise_sets(draw):
    """Random unary FD/IND sets over :data:`UNARY_SCHEMA`, trivial
    premises (``R: A -> A``, ``R[A] <= R[A]``) included."""
    column = st.tuples(
        st.sampled_from(sorted(UNARY_SCHEMA)), st.sampled_from(UNARY_SCHEMA["R"])
    )
    deps = []
    for _ in range(draw(st.integers(0, 14))):
        (rel, a), (rel2, b) = draw(column), draw(column)
        if draw(st.booleans()):
            deps.append(FD(rel, (a,), (b,)))
        else:
            deps.append(IND(rel, (a,), rel2, (b,)))
    return deps


def path_closure(edges: set) -> set:
    """Every ``(u, v)`` with ``u != v`` joined by a path: Warshall's
    triple loop over the columns the edges mention."""
    nodes = sorted({node for edge in edges for node in edge})
    reach = set(edges)
    for mid, src, dst in itertools.product(nodes, repeat=3):
        if (src, mid) in reach and (mid, dst) in reach:
            reach.add((src, dst))
    return {(u, v) for u, v in reach if u != v}


@COMMON
@given(unary_premise_sets())
def test_unrestricted_unary_closure_is_the_path_closure(premises):
    """``finite=False`` derives exactly the premises plus every pair of
    distinct columns joined by a path — IND paths over all columns, FD
    paths inside each relation."""
    ind_edges = {
        ((d.lhs_relation, d.lhs_attributes[0]), (d.rhs_relation, d.rhs_attributes[0]))
        for d in premises if isinstance(d, IND)
    }
    fd_edges = {
        ((d.relation, d.lhs[0]), (d.relation, d.rhs[0]))
        for d in premises if isinstance(d, FD)
    }
    closure = unary_closure(premises, finite=False)
    assert closure.inds == ind_edges | path_closure(ind_edges)
    assert closure.fds == {
        (u[0], u[1], v[1]) for u, v in fd_edges | path_closure(fd_edges)
    }


@COMMON
@given(unary_premise_sets())
def test_finite_unary_closure_is_a_fixpoint(premises):
    """Neither transitivity nor the cycle rule adds anything to the
    ``finite=True`` closure."""
    closure = unary_closure(premises, finite=True)
    fds, inds = set(closure.fds), set(closure.inds)
    _transitive_close(fds, inds)
    assert (fds, inds) == (closure.fds, closure.inds)
    assert not _apply_cycle_rule(fds, inds)
    assert (fds, inds) == (closure.fds, closure.inds)
