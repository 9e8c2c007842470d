"""The :class:`ReasoningSession` facade.

One object per (schema, dependency set) that answers every question
the library knows how to answer, routing each to the optimal engine:

>>> from repro import ReasoningSession, parse_dependencies
>>> from repro.model.schema import DatabaseSchema
>>> schema = DatabaseSchema.from_dict(
...     {"MGR": ("NAME", "DEPT"), "EMP": ("NAME", "DEPT"), "PERSON": ("NAME",)})
>>> session = ReasoningSession(schema, parse_dependencies(
...     "MGR[NAME,DEPT] <= EMP[NAME,DEPT]\\nEMP[NAME] <= PERSON[NAME]"))
>>> answer = session.implies("MGR[NAME] <= PERSON[NAME]")
>>> answer.verdict, answer.engine.value
(True, 'corollary-3.2')

Premises are indexed at construction (see
:class:`~repro.engine.index.PremiseIndex`) and then follow a
*lifecycle*: :meth:`ReasoningSession.add` and
:meth:`ReasoningSession.retract` mutate the premise set in place,
bumping the monotonically increasing :attr:`ReasoningSession.version`
that every :class:`~repro.engine.answer.Answer` is stamped with.
Mutations invalidate caches *scoped to what actually changed*:

* IND questions are served by the premise index's compiled
  :class:`~repro.core.reach_index.ReachIndex` (SCC-condensed bitset
  closure, amortized O(1) per decision); an IND mutation whose left
  relation is outside the index's materialized footprint is a free
  monotone extension, anything else bumps the index epoch and
  recompiles lazily on the next query;
* an FD mutation drops only that relation's memoized attribute
  closures and candidate keys;
* any mutation drops the unary-closure cache (its fixpoint mixes every
  premise, so there is no sound narrower scope) and the premise index's
  compiled chase engine (it holds every premise's rule).

:meth:`ReasoningSession.fork` gives a copy-on-write child for what-if
comparison — mutate the child, and :meth:`ReasoningSession.whatif`
reports which target verdicts flip — without the parent giving up any
of its warmed caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Union

from repro.deps.base import Dependency
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.parser import parse_dependency
from repro.exceptions import (
    ChaseBudgetExceeded,
    DeadlineExceeded,
    SearchBudgetExceeded,
    UnsupportedDependencyError,
)
from repro.model.database import Database
from repro.model.schema import DatabaseSchema
from repro.core.fd_closure import closure_derivation
from repro.core.fd_axioms import check_fd_proof, prove_fd
from repro.core.finite_unary import UnaryClosure, unary_closure
from repro.core.ind_axioms import check_proof
from repro.core.ind_decision import DecisionResult, decide_ind, expression_of_lhs
from repro.core.ind_prover import proof_from_decision
from repro.engine.answer import Answer, Engine, Semantics, jsonify
from repro.engine.deadline import DeadlineLike, coerce_deadline
from repro.engine.index import MutationDelta, PremiseIndex
from repro.engine.routing import choose_engine, routing_profile

Target = Union[Dependency, str]
"""A question: a dependency object or its text-DSL rendering."""

Targets = Union[Target, Iterable[Target]]
"""One target or many (what the mutation API accepts)."""


@dataclass
class CheckReport:
    """Outcome of checking a database against the session's premises."""

    results: list[tuple[Dependency, bool]]
    witnesses: dict[Dependency, list[tuple]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(holds for _dep, holds in self.results)

    @property
    def violated(self) -> list[Dependency]:
        return [dep for dep, holds in self.results if not holds]

    @property
    def satisfied_count(self) -> int:
        return sum(1 for _dep, holds in self.results if holds)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready dict for machine consumers (the CLI ``--json``)."""
        return {
            "ok": self.ok,
            "satisfied": self.satisfied_count,
            "total": len(self.results),
            "results": [
                {
                    "dependency": str(dep),
                    "holds": holds,
                    "witnesses": [
                        jsonify(witness)
                        for witness in self.witnesses.get(dep, ())
                    ],
                }
                for dep, holds in self.results
            ],
        }


@dataclass
class VerdictFlip:
    """One target's before/after verdicts across a premise change."""

    target: Dependency
    before: Answer
    after: Answer

    @property
    def flipped(self) -> bool:
        """Two known verdicts that differ: an unknown never flips."""
        before, after = self.before.verdict, self.after.verdict
        return None not in (before, after) and before != after


def flips_to_json(flips: list[VerdictFlip]) -> dict[str, Any]:
    """A :meth:`ReasoningSession.whatif` diff as JSON: the CLI
    ``--json`` output and the server's ``whatif`` answer."""
    return {
        "flips": [
            {
                "target": str(flip.target),
                "before": flip.before.to_json(),
                "after": flip.after.to_json(),
                "flipped": flip.flipped,
            }
            for flip in flips
        ],
        "flipped": sum(flip.flipped for flip in flips),
        "total": len(flips),
    }


class ReasoningSession:
    """Facade over the paper's four decision procedures.

    Parameters
    ----------
    schema:
        The database scheme every dependency must be well-formed over.
    dependencies:
        The initial premise set Sigma.  Indexed here; evolved in place
        afterwards through :meth:`add` / :meth:`retract`.
    db:
        Optional bundled instance (used by :meth:`check` when no
        explicit database is passed).
    max_nodes / max_rounds / max_tuples:
        Budgets forwarded to the exact search and to the chase.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        dependencies: Iterable[Dependency] = (),
        db: Optional[Database] = None,
        *,
        max_nodes: int = 2_000_000,
        max_rounds: int = 200,
        max_tuples: int = 100_000,
    ):
        self.schema = schema
        self.index = PremiseIndex(schema, dependencies)
        self.db = db
        self.max_nodes = max_nodes
        self.max_rounds = max_rounds
        self.max_tuples = max_tuples
        self.version = 0
        self._unary_cache: dict[Semantics, UnaryClosure] = {}
        self.queries = 0
        self.cache_hits = 0
        self.reach_fallbacks = 0
        self.degraded_answers = 0
        self.engine_counts: dict[str, int] = {}
        self.chase_runs = 0
        self.chase_rounds = 0
        self.chase_rows_scanned = 0
        self.discovery = None

    @classmethod
    def from_database(
        cls,
        db: Database,
        *,
        classes: Iterable[str] = ("fd", "ind"),
        max_lhs: Optional[int] = None,
        max_ind_arity: Optional[int] = None,
        prune: bool = True,
        reduce: bool = True,
        reduce_strategy: str = "auto",
        **session_options: Any,
    ) -> "ReasoningSession":
        """A session whose premises are *mined from the data*.

        Runs the :mod:`repro.discovery` pipeline over ``db`` (FD
        lattice walk, implication-pruned IND apriori lift, minimal
        cover), then builds a session over the reduced cover with
        ``db`` bundled for :meth:`check`.  The full
        :class:`~repro.discovery.report.DiscoveryReport` — per-phase
        candidate/pruning/validation counters included — is kept on
        :attr:`discovery`.

        >>> from repro.model.builders import database
        >>> db = database({"R": ("A", "B"), "S": ("B",)},
        ...               {"R": [(1, 2), (2, 2)], "S": [(2,), (3,)]})
        >>> session = ReasoningSession.from_database(db)
        >>> session.implies("R: A -> B").verdict
        True
        """
        from repro.discovery.pipeline import discover

        report = discover(
            db,
            classes=classes,
            max_lhs=max_lhs,
            max_ind_arity=max_ind_arity,
            prune=prune,
            reduce=reduce,
            reduce_strategy=reduce_strategy,
        )
        if (
            report.session is not None
            and type(report.session) is cls
            and not session_options
        ):
            # The reduction already built this exact session (premises
            # == cover, db bundled, kernels and reach index warm from
            # the reduction queries) — adopt it instead of re-indexing.
            session = report.session
        else:
            session = cls(db.schema, report.cover, db=db, **session_options)
        session.discovery = report
        return session

    # -- plumbing ----------------------------------------------------------

    @property
    def dependencies(self) -> tuple[Dependency, ...]:
        return self.index.dependencies

    @property
    def premise_hash(self) -> str:
        """Structural hash of (schema, premise multiset) — see
        :attr:`PremiseIndex.premise_hash`.  Stable across processes and
        premise insertion orders; the serving layer's artifact-sharing
        key."""
        return self.index.premise_hash

    def adopt_compiled_from(self, donor: "ReasoningSession") -> None:
        """Share a structurally identical session's compiled artifacts.

        Grafts copy-on-write twins of the donor's compiled IND kernels,
        reach index, FD closure kernels, closure/key memos, and unary
        closures onto this session, plus its compiled chase engine when
        the premises are in the same order, so a freshly built session
        with the same (schema, premises) skips every compilation the
        donor already paid.  Verdicts are unaffected — only warm state
        moves.
        Raises :class:`ValueError` when the premise hashes differ.
        """
        if donor is self:
            return
        self.index.adopt_compiled(donor.index)
        self._unary_cache = dict(donor._unary_cache)

    def _coerce(self, target: Target) -> Dependency:
        if isinstance(target, str):
            target = parse_dependency(target)
        target.validate(self.schema)
        return target

    def _coerce_many(self, targets: Targets) -> list[Dependency]:
        if isinstance(targets, (str, Dependency)):
            targets = [targets]
        return [self._coerce(target) for target in targets]

    def route(self, target: Target,
              semantics: Union[Semantics, str] = Semantics.UNRESTRICTED) -> Engine:
        """Which engine :meth:`implies` would use, without running it."""
        return choose_engine(self.index, self._coerce(target), Semantics(semantics))

    # -- the premise lifecycle ---------------------------------------------

    def add(self, dependencies: Targets) -> MutationDelta:
        """Assert new premises: ``Sigma := Sigma + deps``.

        Accepts one target or an iterable, each a dependency object or
        its DSL rendering.  Bumps :attr:`version` and invalidates only
        the caches the mutation can actually affect (see the module
        docstring).  Returns the :class:`MutationDelta`.
        """
        delta = self.index.add(self._coerce_many(dependencies))
        self._apply_delta(delta)
        return delta

    def retract(self, dependencies: Targets) -> MutationDelta:
        """Withdraw premises: ``Sigma := Sigma - deps``.

        Each dependency must currently be a premise (one occurrence is
        removed per mention); otherwise
        :class:`~repro.exceptions.DependencyError` is raised and the
        session is left unchanged.
        """
        delta = self.index.retract(self._coerce_many(dependencies))
        self._apply_delta(delta)
        return delta

    def _apply_delta(self, delta: MutationDelta) -> None:
        """Version bump + scoped cache invalidation for one mutation.

        The index has already evicted the affected closure/key memos
        and fed the reach index's epoch/dirty policy (free monotone
        extension vs lazy recompile); here the session drops the
        unary-closure cache (whole-set fixpoint) on any mutation.
        An empty mutation is a no-op: no version bump, no eviction.
        """
        if not delta:
            return
        self.version += 1
        self._unary_cache.clear()

    def fork(self) -> "ReasoningSession":
        """A copy-on-write child session for what-if exploration.

        The child starts with the parent's premises, version, and
        warmed caches — cloning copies dict skeletons (including the
        compiled reach index's node/label arrays), never re-indexes or
        recompiles — and the two evolve independently afterwards:
        mutations on either side replace buckets and evict cache
        entries rather than mutating shared values.
        """
        child = ReasoningSession.__new__(ReasoningSession)
        child.schema = self.schema
        child.index = self.index.clone()
        child.db = self.db
        child.max_nodes = self.max_nodes
        child.max_rounds = self.max_rounds
        child.max_tuples = self.max_tuples
        child.version = self.version
        child._unary_cache = dict(self._unary_cache)
        child.queries = 0
        child.cache_hits = 0
        child.reach_fallbacks = 0
        child.degraded_answers = 0
        child.engine_counts = {}
        child.chase_runs = 0
        child.chase_rounds = 0
        child.chase_rows_scanned = 0
        child.discovery = self.discovery
        return child

    def whatif(
        self,
        targets: Iterable[Target],
        add: Targets = (),
        retract: Targets = (),
        semantics: Union[Semantics, str] = Semantics.UNRESTRICTED,
        *,
        deadline: DeadlineLike = None,
        degrade: bool = False,
    ) -> list[VerdictFlip]:
        """Which targets change verdict under a hypothetical change?

        Answers every target against the current premises, forks a
        child, applies ``retract`` then ``add`` to the child, and
        answers again — ``repro diff`` style.  The parent session is
        untouched (and keeps any exploration warmed along the way).
        Each target and premise is validated once.  ``deadline`` and
        ``degrade`` are :meth:`implies_all`'s, with one clock for both
        passes.
        """
        deadline = coerce_deadline(deadline)
        before = self.implies_all(targets, semantics, deadline=deadline,
                                  degrade=degrade)
        child = self.fork()
        child.retract(retract)
        child.add(add)
        return [
            VerdictFlip(b.target, b, child.implies(
                b.target, semantics, _coerced=True, deadline=deadline,
                degrade=degrade,
            ))
            for b in before
        ]

    def _decide_ind(self, target: IND, tick=None) -> tuple[DecisionResult, bool]:
        """Decide one IND question from the compiled reach index.

        An already-compiled source answers with a bitset membership
        test (amortized O(1)); a fresh source materializes its
        reachable component into the shared index first, so every
        later question from (or through) it is a hit.  The second
        element reports whether the answer was a pure hit — no
        materialization, no recompile.
        """
        reach = self.index.reach_index
        if reach.is_hot(expression_of_lhs(target)):
            self.cache_hits += 1
            return reach.decide(target, max_nodes=self.max_nodes, tick=tick), True
        try:
            return reach.decide(target, max_nodes=self.max_nodes, tick=tick), False
        except SearchBudgetExceeded:
            # The source's full closure blows the budget, but the
            # early-exit BFS may still find the goal within it — e.g. a
            # one-hop implication inside a combinatorial expression
            # graph.  The failed expansion was rolled back, so the
            # compiled components other sources rely on are intact.
            self.reach_fallbacks += 1
            return decide_ind(
                target, self.index.ind_kernels, max_nodes=self.max_nodes,
                tick=tick,
            ), False

    def _unary_closure(self, semantics: Semantics) -> UnaryClosure:
        closure = self._unary_cache.get(semantics)
        if closure is None:
            closure = unary_closure(
                list(self.index.inds) + list(self.index.fds),
                finite=semantics is Semantics.FINITE,
            )
            self._unary_cache[semantics] = closure
        return closure

    # -- implication -------------------------------------------------------

    def implies(
        self,
        target: Target,
        semantics: Union[Semantics, str] = Semantics.UNRESTRICTED,
        _coerced: bool = False,
        *,
        deadline: DeadlineLike = None,
        degrade: bool = False,
    ) -> Answer:
        """Decide ``Sigma |= target`` with the optimal engine.

        ``semantics`` selects unrestricted (default) or finite
        implication; the two coincide on pure-IND and pure-FD
        questions, differ on unary mixed sets (Theorem 4.4), and finite
        implication of non-unary mixed sets raises — it is not even
        recursively enumerable, so there is nothing sound to route to.

        ``deadline`` (a :class:`~repro.engine.deadline.Deadline` or a
        number of seconds) bounds the wall-clock time the engines may
        spend: the chase polls it before every rule application, the
        reach/kernel BFS paths every 256 expansions.  ``degrade``
        selects what happens when the deadline expires *or* a
        work budget (chase rounds/tuples, search nodes) runs out:
        ``False`` (the default, the library contract) re-raises the
        exception; ``True`` (the serving contract) returns an
        :class:`Answer` with ``verdict=None``/``degraded=True`` and
        partial stats instead.
        """
        semantics = Semantics(semantics)
        if not _coerced:
            target = self._coerce(target)
        engine = choose_engine(self.index, target, semantics)
        self.queries += 1
        self.engine_counts[engine.value] = (
            self.engine_counts.get(engine.value, 0) + 1
        )
        deadline = coerce_deadline(deadline)
        tick = deadline.check if deadline is not None else None
        try:
            if tick is not None:
                tick()
            return self._dispatch(target, semantics, engine, tick)
        except (DeadlineExceeded, ChaseBudgetExceeded,
                SearchBudgetExceeded) as exc:
            if not degrade:
                raise
            return self._degraded_answer(target, semantics, engine, exc,
                                         deadline)

    def _degraded_answer(
        self,
        target: Dependency,
        semantics: Semantics,
        engine: Engine,
        exc: Exception,
        deadline,
    ) -> Answer:
        """The unknown-verdict answer a cut-short question degrades to.

        Carries the partial progress the failed engine reported — how
        far the chase or search got — so callers can distinguish "barely
        started" from "almost converged" timeouts.
        """
        stats: dict[str, Any]
        if isinstance(exc, DeadlineExceeded):
            stats = {"reason": "deadline",
                     "elapsed_ms": round(exc.elapsed * 1000, 3)}
        elif isinstance(exc, ChaseBudgetExceeded):
            stats = {"reason": "chase-budget",
                     "rounds": exc.rounds, "tuples": exc.tuples}
        else:
            assert isinstance(exc, SearchBudgetExceeded)
            stats = {"reason": "search-budget", "explored": exc.explored}
        if deadline is not None and "elapsed_ms" not in stats:
            stats["elapsed_ms"] = round(deadline.elapsed() * 1000, 3)
        self.degraded_answers += 1
        return Answer(
            verdict=None,
            target=target,
            engine=engine,
            semantics=semantics,
            degraded=True,
            version=self.version,
            stats=stats,
        )

    def _dispatch(
        self,
        target: Dependency,
        semantics: Semantics,
        engine: Engine,
        tick,
    ) -> Answer:
        if engine is Engine.COROLLARY_32:
            assert isinstance(target, IND)
            result, cached = self._decide_ind(target, tick)
            return Answer(
                verdict=result.implied,
                target=target,
                engine=engine,
                semantics=semantics,
                certificate=result,
                cached=cached,
                version=self.version,
                stats={"explored": result.explored,
                       "frontier_peak": result.frontier_peak,
                       "chain_length": result.chain_length},
            )

        if engine is Engine.FD_CLOSURE:
            assert isinstance(target, FD)
            closure = self.index.closure(target.relation, target.lhs_set)
            implied = target.rhs_set <= closure
            derivation = closure_derivation(
                target.lhs_set, self.index.fds_of(target.relation)
            ) if implied else None
            return Answer(
                verdict=implied,
                target=target,
                engine=engine,
                semantics=semantics,
                certificate=derivation,
                version=self.version,
                stats={"closure_size": len(closure),
                       "closures_memoized": self.index.closure_cache_size},
            )

        if engine in (Engine.FINITE_UNARY, Engine.UNARY_UNRESTRICTED):
            closure = self._unary_closure(semantics)
            return Answer(
                verdict=closure.implies(target),
                target=target,
                engine=engine,
                semantics=semantics,
                certificate=closure,
                version=self.version,
                stats={"derived_fds": len(closure.fds),
                       "derived_inds": len(closure.inds)},
            )

        certificate = self.index.chase_engine().implies(
            target,
            max_rounds=self.max_rounds,
            max_tuples=self.max_tuples,
            tick=tick,
        )
        self.chase_runs += 1
        self.chase_rounds += certificate.outcome.rounds
        self.chase_rows_scanned += certificate.outcome.rows_scanned
        return Answer(
            verdict=certificate.implied,
            target=target,
            engine=Engine.CHASE,
            semantics=semantics,
            certificate=certificate,
            version=self.version,
            stats={"rounds": certificate.outcome.rounds,
                   "tuples": certificate.outcome.instance.total_tuples(),
                   "rows_scanned": certificate.outcome.rows_scanned},
        )

    def implies_all(
        self,
        targets: Iterable[Target],
        semantics: Union[Semantics, str] = Semantics.UNRESTRICTED,
        *,
        deadline: DeadlineLike = None,
        degrade: bool = False,
    ) -> list[Answer]:
        """Batch implication: one answer per target, in order.

        Each target is coerced and validated exactly once, and every
        IND question shares the session's compiled reach index: the
        first target from a source materializes its component, and
        every later target from (or through) that component — grouped
        or not — is a bitset hit.  Asking N questions therefore costs
        one compilation plus N O(1) lookups, far less than N
        independent calls to the free functions.

        ``deadline`` is shared by the whole batch (one clock, not one
        per target); with ``degrade=True`` the targets the clock ran
        out on come back as unknown-verdict answers while already
        decided ones keep their real verdicts.
        """
        coerced = [self._coerce(target) for target in targets]
        deadline = coerce_deadline(deadline)
        return [
            self.implies(target, semantics, _coerced=True,
                         deadline=deadline, degrade=degrade)
            for target in coerced
        ]

    # -- proofs ------------------------------------------------------------

    def prove(self, target: Target) -> Answer:
        """A formal, independently checked proof for ``target``.

        IND targets get an IND1-IND3
        :class:`~repro.core.ind_axioms.Proof` from the IND premises; FD
        targets get an Armstrong
        :class:`~repro.core.fd_axioms.FdProof` from the FD premises.
        Both are run through their independent checkers before being
        returned.  A proof from the class-matching premise *subset* is
        a sound proof from the whole set; when the premises are mixed a
        *negative* answer is only "not provable in this calculus" (the
        interaction results of Section 4 mean the subset can be
        incomplete), which the answer flags with
        ``stats["subset_complete"] = False``.
        """
        target = self._coerce(target)

        if isinstance(target, IND):
            self.queries += 1
            result, cached = self._decide_ind(target)
            subset_complete = self.index.pure_ind
            answer = Answer(
                verdict=result.implied,
                target=target,
                engine=Engine.COROLLARY_32,
                certificate=result,
                cached=cached,
                version=self.version,
                stats={"explored": result.explored,
                       "subset_complete": subset_complete},
            )
            if result.implied:
                proof = proof_from_decision(result, list(self.index.inds))
                check_proof(proof, self.schema, target)
                answer.proof = proof
            return answer

        if isinstance(target, FD):
            self.queries += 1
            implied = self.index.fd_implied(target)
            subset_complete = self.index.pure_fd
            answer = Answer(
                verdict=implied,
                target=target,
                engine=Engine.FD_CLOSURE,
                version=self.version,
                stats={"subset_complete": subset_complete},
            )
            if implied:
                proof = prove_fd(target, list(self.index.fds_of(target.relation)))
                check_fd_proof(proof, target)
                answer.proof = proof
            return answer

        raise UnsupportedDependencyError(
            f"no proof calculus for targets of type {type(target).__name__} "
            "(IND1-IND3 proves INDs, Armstrong's axioms prove FDs)"
        )

    # -- database-level questions -----------------------------------------

    def check(self, db: Optional[Database] = None) -> CheckReport:
        """Check a database (or the bundled one) against the premises."""
        instance = db if db is not None else self.db
        if instance is None:
            raise ValueError("session has no database to check")
        results: list[tuple[Dependency, bool]] = []
        witnesses: dict[Dependency, list[tuple]] = {}
        for dep in self.dependencies:
            holds = instance.satisfies(dep)
            results.append((dep, holds))
            if not holds:
                witnesses[dep] = dep.violations(instance)
        return CheckReport(results=results, witnesses=witnesses)

    def keys(self, relation: Optional[str] = None) -> dict[str, list[frozenset[str]]]:
        """Candidate keys per relation under the session's FDs.

        Memoized in the premise index; the FD-mutation path evicts
        exactly the mutated relation's entry.
        """
        if relation is not None:
            rel = self.schema.relation(relation)
            return {rel.name: self.index.keys_of(rel.name)}
        return {rel.name: self.index.keys_of(rel.name) for rel in self.schema}

    def closure(self, relation: str, attrs: Iterable[str]) -> frozenset[str]:
        """Memoized attribute closure ``X+`` in ``relation``."""
        self.schema.relation(relation)  # validate the name
        return self.index.closure(relation, attrs)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Counters for the session's caches and workload.

        ``reach_cache_hits`` counts IND answers served without any
        materialization or recompile; the ``reach_*`` keys from the
        premise index expose the compiled closure itself (nodes, SCCs,
        label bits, epoch, compile count).  ``engines`` is the routing
        histogram of every ``implies`` call this session answered.
        ``premise_hash`` and ``version`` identify the premise set
        structurally and temporally — what a remote caller needs to
        tell two tenants (or two snapshots of one) apart.
        """
        return {
            "version": self.version,
            "premise_hash": self.premise_hash,
            "queries": self.queries,
            "reach_cache_hits": self.cache_hits,
            "reach_fallbacks": self.reach_fallbacks,
            "degraded_answers": self.degraded_answers,
            "engines": dict(self.engine_counts),
            "chase_runs": self.chase_runs,
            "chase_rounds": self.chase_rounds,
            "chase_rows_scanned": self.chase_rows_scanned,
            "routing": routing_profile(self.index),
            **self.index.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"ReasoningSession({len(self.schema)} relations, "
            f"{len(self.index.inds)} INDs, {len(self.index.fds)} FDs, "
            f"{len(self.index.rds)} RDs, v{self.version})"
        )
