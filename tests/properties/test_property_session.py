"""Oracle equivalence for the session lifecycle's scoped invalidation.

The contract of ``add``/``retract`` is that incremental maintenance is
*unobservable*: after any interleaving of mutations, every question
must be answered exactly as a fresh :class:`ReasoningSession` built
from the final premise set would answer it.  Probes run after every
single mutation (and before the first), so any stale reachability
entry, closure memo, key memo, or unary-closure cache the scoped
invalidation failed to drop shows up as a verdict mismatch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, ReasoningSession
from repro.exceptions import ReproError
from repro.model.schema import DatabaseSchema
from tests.properties.strategies import fds, inds

SCHEMA = DatabaseSchema.from_dict(
    {"R": ("A", "B"), "S": ("A", "B"), "T": ("A", "B")}
)

PROBES = (
    "R[A] <= S[A]",
    "R[A] <= T[A]",
    "S[B] <= R[B]",
    "R[A,B] <= S[A,B]",
    "R: A -> B",
    "S: B -> A",
)

BUDGETS = dict(max_nodes=50_000, max_rounds=30, max_tuples=5_000)


def observe(session: ReasoningSession) -> list:
    """Every observable the session exposes, as comparable values.

    Questions outside a decidable fragment (finite implication of a
    non-unary mixed set) or over the chase budget raise; the exception
    *type* is part of the observable behaviour and must match too.  A
    chase answer's stats (rounds, tuples, rows scanned) are observed as
    well, so a compiled chase engine left stale by a mutation or a fork
    fails here even when its verdict happens to agree.
    """
    observations: list = []
    for target in PROBES:
        for semantics in ("unrestricted", "finite"):
            try:
                answer = session.implies(target, semantics=semantics)
            except ReproError as exc:
                observations.append(type(exc).__name__)
                continue
            observations.append(answer.verdict)
            if answer.engine is Engine.CHASE:
                observations.append(answer.stats)
    for relation in ("R", "S", "T"):
        observations.append(sorted(session.keys(relation)[relation], key=sorted))
        observations.append(sorted(session.closure(relation, ["A"])))
    return observations


@st.composite
def mutation_scripts(draw):
    """A random interleaving of adds and retracts.

    Retracts name a position into the premises *current at execution
    time* (modulo its length), so every generated script is valid by
    construction and shrinks well.
    """
    length = draw(st.integers(1, 5))
    script = []
    for _ in range(length):
        if draw(st.booleans()):
            script.append(("add", draw(st.one_of(inds(SCHEMA), fds(SCHEMA)))))
        else:
            script.append(("retract", draw(st.integers(0, 63))))
    return script


class TestLifecycleOracleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(mutation_scripts())
    def test_incremental_session_equals_rebuilt_session(self, script):
        session = ReasoningSession(SCHEMA, [], **BUDGETS)
        premises: list = []
        observe(session)  # warm the caches before the first mutation
        for kind, payload in script:
            if kind == "add":
                session.add(payload)
                premises.append(payload)
            else:
                if not premises:
                    continue
                victim = premises[payload % len(premises)]
                session.retract(victim)
                premises.remove(victim)
            oracle = ReasoningSession(SCHEMA, list(premises), **BUDGETS)
            assert observe(session) == observe(oracle)
            assert session.dependencies == oracle.dependencies

    @settings(max_examples=15, deadline=None)
    @given(mutation_scripts(), mutation_scripts())
    def test_forked_sessions_diverge_like_independent_sessions(
        self, parent_script, child_script
    ):
        """A fork evolved independently matches a from-scratch session."""
        session = ReasoningSession(SCHEMA, [], **BUDGETS)
        premises: list = []
        for kind, payload in parent_script:
            if kind == "add":
                session.add(payload)
                premises.append(payload)
            elif premises:
                victim = premises[payload % len(premises)]
                session.retract(victim)
                premises.remove(victim)
        observe(session)
        child = session.fork()
        child_premises = list(premises)
        for kind, payload in child_script:
            if kind == "add":
                child.add(payload)
                child_premises.append(payload)
            elif child_premises:
                victim = child_premises[payload % len(child_premises)]
                child.retract(victim)
                child_premises.remove(victim)
        parent_oracle = ReasoningSession(SCHEMA, list(premises), **BUDGETS)
        child_oracle = ReasoningSession(SCHEMA, list(child_premises), **BUDGETS)
        assert observe(child) == observe(child_oracle)
        assert observe(session) == observe(parent_oracle)
