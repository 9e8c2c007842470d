"""The ReasoningSession facade: uniform answers, caching, batching."""

import pytest

from repro.core.fd_closure import fd_implies
from repro.core.fdind_chase import chase_implies
from repro.core.finite_unary import finitely_implies_unary
from repro.core.ind_axioms import check_proof
from repro.core.ind_decision import decide_ind
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.parser import parse_dependency
from repro.engine import Answer, Engine, PremiseIndex, ReasoningSession, Semantics
from repro.exceptions import DependencyError, UnsupportedDependencyError
from repro.model.builders import database
from repro.model.schema import DatabaseSchema


@pytest.fixture
def paper_schema():
    return DatabaseSchema.from_dict(
        {"MGR": ("NAME", "DEPT"), "EMP": ("NAME", "DEPT"), "PERSON": ("NAME",)}
    )


@pytest.fixture
def paper_inds():
    return [
        IND("MGR", ("NAME", "DEPT"), "EMP", ("NAME", "DEPT")),
        IND("EMP", ("NAME",), "PERSON", ("NAME",)),
    ]


@pytest.fixture
def ind_session(paper_schema, paper_inds):
    return ReasoningSession(paper_schema, paper_inds)


class TestImplies:
    def test_matches_free_function(self, ind_session, paper_inds):
        target = IND("MGR", ("NAME",), "PERSON", ("NAME",))
        answer = ind_session.implies(target)
        assert answer.verdict is True
        assert answer.verdict == decide_ind(target, paper_inds).implied

    def test_accepts_dsl_strings(self, ind_session):
        assert ind_session.implies("MGR[NAME] <= PERSON[NAME]").verdict
        assert not ind_session.implies("PERSON[NAME] <= MGR[NAME]").verdict

    def test_answer_is_truthy(self, ind_session):
        assert ind_session.implies("MGR[NAME] <= EMP[NAME]")
        assert not ind_session.implies("PERSON[NAME] <= MGR[NAME]")

    def test_validates_target_against_schema(self, ind_session):
        with pytest.raises(DependencyError):
            ind_session.implies("MGR[SALARY] <= EMP[SALARY]")

    def test_witness_chain_attached(self, ind_session):
        answer = ind_session.implies("MGR[NAME] <= PERSON[NAME]")
        assert answer.certificate.chain[0] == ("MGR", ("NAME",))
        assert answer.certificate.chain[-1] == ("PERSON", ("NAME",))

    def test_fd_answers_match_fd_closure(self, paper_schema):
        fds = [FD("EMP", "NAME", "DEPT")]
        session = ReasoningSession(paper_schema, fds)
        target = FD("EMP", "NAME", "DEPT")
        answer = session.implies(target)
        assert answer.verdict == fd_implies(fds, target) is True
        assert answer.engine is Engine.FD_CLOSURE

    def test_chase_answers_match_chase(self, paper_schema, paper_inds):
        deps = paper_inds + [FD("EMP", "NAME", "DEPT")]
        session = ReasoningSession(paper_schema, deps)
        target = FD("MGR", "NAME", "DEPT")
        answer = session.implies(target)
        certificate = chase_implies(paper_schema, deps, target)
        assert answer.verdict == certificate.implied is True
        assert answer.engine is Engine.CHASE
        assert answer.stats["rounds"] >= 1

    def test_finite_unary_matches_free_function(self):
        schema = DatabaseSchema.from_dict({"R": ("A", "B")})
        deps = [IND("R", ("A",), "R", ("B",)), FD("R", "A", "B")]
        session = ReasoningSession(schema, deps)
        target = IND("R", ("B",), "R", ("A",))
        finite = session.implies(target, semantics="finite")
        unrestricted = session.implies(target)
        assert finite.verdict is True
        assert finite.verdict == finitely_implies_unary(deps, target)
        assert unrestricted.verdict is False
        assert finite.semantics is Semantics.FINITE

    def test_all_answers_are_uniform(self, paper_schema, paper_inds):
        """Every engine returns the same Answer shape."""
        sessions_and_targets = [
            (ReasoningSession(paper_schema, paper_inds),
             "MGR[NAME] <= PERSON[NAME]", Semantics.UNRESTRICTED),
            (ReasoningSession(paper_schema, [FD("EMP", "NAME", "DEPT")]),
             "EMP: NAME -> DEPT", Semantics.UNRESTRICTED),
            (ReasoningSession(paper_schema,
                              paper_inds + [FD("EMP", "NAME", "DEPT")]),
             "MGR: NAME -> DEPT", Semantics.UNRESTRICTED),
            (ReasoningSession(DatabaseSchema.from_dict({"R": ("A", "B")}),
                              [IND("R", ("A",), "R", ("B",)), FD("R", "A", "B")]),
             "R[B] <= R[A]", Semantics.FINITE),
        ]
        engines = set()
        for session, target, semantics in sessions_and_targets:
            answer = session.implies(target, semantics)
            assert isinstance(answer, Answer)
            assert isinstance(answer.verdict, bool)
            assert isinstance(answer.engine, Engine)
            assert isinstance(answer.stats, dict)
            assert answer.describe()
            engines.add(answer.engine)
        assert engines == {
            Engine.COROLLARY_32, Engine.FD_CLOSURE, Engine.CHASE,
            Engine.FINITE_UNARY,
        }


class TestBatch:
    TARGETS = [
        "MGR[NAME] <= PERSON[NAME]",
        "MGR[NAME] <= EMP[NAME]",
        "MGR[DEPT] <= EMP[DEPT]",
        "PERSON[NAME] <= MGR[NAME]",
        "MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
    ]

    def test_indexing_happens_exactly_once(self, paper_schema, paper_inds):
        session = ReasoningSession(paper_schema, paper_inds)
        before = PremiseIndex.builds_total
        answers = session.implies_all(self.TARGETS)
        assert len(answers) == len(self.TARGETS)
        assert PremiseIndex.builds_total == before  # zero rebuilds

    def test_session_construction_indexes_once(self, paper_schema, paper_inds):
        before = PremiseIndex.builds_total
        session = ReasoningSession(paper_schema, paper_inds)
        session.implies_all(self.TARGETS)
        assert PremiseIndex.builds_total == before + 1

    def test_reach_index_shared_across_batch(self, ind_session):
        answers = ind_session.implies_all(self.TARGETS)
        # MGR[NAME]'s component covers EMP[NAME] and PERSON[NAME], so
        # the PERSON[NAME] start and the repeated MGR[NAME] start are
        # pure bitset hits; only the three genuinely new components
        # (MGR[NAME], MGR[DEPT], MGR[NAME,DEPT]) compile.
        stats = ind_session.stats()
        assert stats["reach_cache_hits"] >= 2
        assert stats["reach_compiles"] == 3
        assert stats["reach_compiles"] < len(self.TARGETS)
        assert [a.verdict for a in answers] == [True, True, True, False, True]

    def test_cached_answers_agree_with_fresh_sessions(
        self, paper_schema, paper_inds
    ):
        batch = ReasoningSession(paper_schema, paper_inds).implies_all(self.TARGETS)
        for target, answer in zip(self.TARGETS, batch):
            fresh = ReasoningSession(paper_schema, paper_inds).implies(target)
            assert answer.verdict == fresh.verdict

    def test_single_query_compiles_the_whole_component(self):
        # A chain R0 -> ... -> R5: the session's index materializes
        # the full component on first touch (amortized serving cost
        # model), so even R0[A] <= R1[A] reports the component size —
        # and every later question over the chain is an O(1) hit.
        schema = DatabaseSchema.from_dict(
            {f"R{i}": ("A",) for i in range(6)}
        )
        premises = [IND(f"R{i}", ("A",), f"R{i+1}", ("A",)) for i in range(5)]
        session = ReasoningSession(schema, premises)
        answer = session.implies(IND("R0", ("A",), "R1", ("A",)))
        assert answer.verdict
        assert answer.stats["explored"] == 6  # the whole chain component
        later = session.implies(IND("R1", ("A",), "R5", ("A",)))
        assert later.verdict and later.cached
        assert session.stats()["reach_compiles"] == 1

    def test_one_shot_free_function_keeps_the_early_exit_search(self):
        # The uncompiled path is unchanged: a one-shot decide_ind stops
        # at the first hop instead of walking the whole chain.
        premises = [IND(f"R{i}", ("A",), f"R{i+1}", ("A",)) for i in range(5)]
        result = decide_ind(IND("R0", ("A",), "R1", ("A",)), premises)
        assert result.implied and result.explored == 1

    def test_budget_blown_materialization_falls_back_to_early_exit(self):
        # A combinatorial component whose full closure exceeds the
        # session budget: the early-exit BFS still answers the one-hop
        # question (PR-3 behavior), and the failure is counted.
        schema = DatabaseSchema.from_dict(
            {f"R{i}": ("A", "B", "C") for i in range(10)}
        )
        premises = [
            IND(f"R{i}", ("A", "B", "C"), f"R{i+1}", (order))
            for i in range(9)
            for order in (("B", "C", "A"), ("C", "A", "B"))
        ]
        session = ReasoningSession(schema, premises, max_nodes=20)
        answer = session.implies(IND("R0", ("A",), "R1", ("B",)))
        assert answer.verdict and not answer.cached
        assert answer.stats["explored"] <= 20
        stats = session.stats()
        assert stats["reach_fallbacks"] == 1
        assert stats["reach_nodes"] == 0  # the failed expansion rolled back

    def test_batch_order_preserved(self, ind_session):
        answers = ind_session.implies_all(self.TARGETS)
        assert [str(a.target) for a in answers] == [
            str(parse_dependency(t)) for t in self.TARGETS
        ]

    def test_implied_answers_report_a_real_frontier_peak(self, ind_session):
        # Implied answers reconstruct a witness chain from the source's
        # recorded parent edges, and carry that BFS's real frontier
        # peak; negative answers are pure bitset tests — the index runs
        # no frontier, reported as 0.
        answers = ind_session.implies_all(self.TARGETS)
        cached = [a for a in answers if a.cached]
        assert cached  # MGR[NAME] repeats, so its second answer is cached
        for answer in answers:
            if answer.verdict:
                assert answer.stats["frontier_peak"] >= 1
            else:
                assert answer.stats["frontier_peak"] == 0
        fresh = ind_session.implies("MGR[NAME] <= PERSON[NAME]")
        assert fresh.cached
        assert fresh.stats["frontier_peak"] >= 1

    def test_second_identical_query_triggers_zero_recompiles(self, ind_session):
        first = ind_session.implies("MGR[NAME] <= PERSON[NAME]")
        compiled = ind_session.stats()["reach_compiles"]
        assert compiled == 1 and not first.cached
        second = ind_session.implies("MGR[NAME] <= PERSON[NAME]")
        assert second.cached and second.verdict == first.verdict
        stats = ind_session.stats()
        assert stats["reach_compiles"] == compiled  # zero recompiles
        assert stats["reach_cache_hits"] == 1
        assert stats["reach_epoch"] == 0


class TestProve:
    def test_ind_proof_checks(self, ind_session, paper_schema):
        answer = ind_session.prove("MGR[NAME] <= PERSON[NAME]")
        assert answer.verdict and answer.proof is not None
        assert check_proof(answer.proof, paper_schema, answer.target)

    def test_fd_proof_checks(self, paper_schema):
        session = ReasoningSession(
            paper_schema, [FD("EMP", "NAME", "DEPT")]
        )
        answer = session.prove("EMP: NAME -> DEPT")
        assert answer.verdict and answer.proof is not None

    def test_negative_answer_has_no_proof(self, ind_session):
        answer = ind_session.prove("PERSON[NAME] <= MGR[NAME]")
        assert not answer.verdict and answer.proof is None

    def test_mixed_premises_flag_subset_incompleteness(
        self, paper_schema, paper_inds
    ):
        session = ReasoningSession(
            paper_schema, paper_inds + [FD("EMP", "NAME", "DEPT")]
        )
        positive = session.prove("MGR[NAME] <= PERSON[NAME]")
        assert positive.verdict and positive.proof is not None
        negative = session.prove("PERSON[NAME] <= MGR[NAME]")
        assert not negative.verdict
        assert negative.stats["subset_complete"] is False

    def test_rd_target_unsupported(self, paper_schema, paper_inds):
        session = ReasoningSession(paper_schema, paper_inds)
        with pytest.raises(UnsupportedDependencyError):
            session.prove("MGR[NAME = DEPT]")


class TestCheckKeysClosure:
    def test_check_uses_bundled_database(self, paper_schema, paper_inds):
        db = database(
            paper_schema,
            {
                "MGR": [("Hilbert", "Math")],
                "EMP": [("Hilbert", "Math")],
                "PERSON": [("Hilbert",)],
            },
        )
        session = ReasoningSession(paper_schema, paper_inds, db=db)
        report = session.check()
        assert report.ok and bool(report)
        assert report.satisfied_count == 2

    def test_check_reports_violations_with_witnesses(
        self, paper_schema, paper_inds
    ):
        db = database(paper_schema, {"MGR": [("Ghost", "Ops")]})
        session = ReasoningSession(paper_schema, paper_inds, db=db)
        report = session.check()
        assert not report.ok
        violated = report.violated[0]
        assert ("Ghost", "Ops") in report.witnesses[violated]

    def test_check_without_database_raises(self, ind_session):
        with pytest.raises(ValueError):
            ind_session.check()

    def test_keys(self, paper_schema):
        session = ReasoningSession(paper_schema, [FD("EMP", "NAME", "DEPT")])
        keys = session.keys("EMP")
        assert keys == {"EMP": [frozenset({"NAME"})]}

    def test_closure_memoized(self, paper_schema):
        session = ReasoningSession(paper_schema, [FD("EMP", "NAME", "DEPT")])
        first = session.closure("EMP", ["NAME"])
        second = session.closure("EMP", ["NAME"])
        assert first == second == frozenset({"NAME", "DEPT"})
        assert session.index.closure_cache_size == 1


class TestRoute:
    def test_route_previews_engine_without_deciding(self, ind_session):
        assert ind_session.route("MGR[NAME] <= EMP[NAME]") is Engine.COROLLARY_32
        assert ind_session.queries == 0


class TestPremiseHash:
    def test_stable_across_insertion_order(self, paper_schema, paper_inds):
        forward = ReasoningSession(paper_schema, paper_inds)
        backward = ReasoningSession(paper_schema, list(reversed(paper_inds)))
        assert forward.premise_hash == backward.premise_hash

    def test_changes_on_mutation_and_restores(self, ind_session):
        original = ind_session.premise_hash
        extra = FD("EMP", ("NAME",), ("DEPT",))
        ind_session.add(extra)
        mutated = ind_session.premise_hash
        assert mutated != original
        ind_session.retract(extra)
        assert ind_session.premise_hash == original

    def test_duplicate_premise_changes_hash(self, ind_session, paper_inds):
        # Premises are a multiset: a second copy is a real mutation,
        # and structurally distinct states must never share a hash.
        original = ind_session.premise_hash
        ind_session.add(paper_inds[0])
        assert ind_session.premise_hash != original
        ind_session.retract(paper_inds[0])
        assert ind_session.premise_hash == original

    def test_empty_mutation_keeps_hash(self, ind_session):
        original = ind_session.premise_hash
        ind_session.add([])
        assert ind_session.premise_hash == original

    def test_differs_across_schemas(self, paper_inds):
        narrow = DatabaseSchema.from_dict(
            {"MGR": ("NAME", "DEPT"), "EMP": ("NAME", "DEPT"),
             "PERSON": ("NAME",)}
        )
        wide = DatabaseSchema.from_dict(
            {"MGR": ("NAME", "DEPT"), "EMP": ("NAME", "DEPT"),
             "PERSON": ("NAME",), "EXTRA": ("X",)}
        )
        assert (
            ReasoningSession(narrow, paper_inds).premise_hash
            != ReasoningSession(wide, paper_inds).premise_hash
        )

    def test_stats_carry_hash_and_version(self, ind_session):
        stats = ind_session.stats()
        assert stats["premise_hash"] == ind_session.premise_hash
        assert stats["version"] == ind_session.version == 0

    def test_fork_preserves_hash(self, ind_session):
        assert ind_session.fork().premise_hash == ind_session.premise_hash


class TestAdoptCompiled:
    def test_adoptee_answers_without_recompiling(
        self, paper_schema, paper_inds
    ):
        donor = ReasoningSession(paper_schema, paper_inds)
        target = "MGR[NAME] <= PERSON[NAME]"
        expected = donor.implies(target)
        compiles = donor.index.reach_index.compiles
        adoptee = ReasoningSession(paper_schema, paper_inds)
        adoptee.adopt_compiled_from(donor)
        answer = adoptee.implies(target)
        assert answer.verdict == expected.verdict
        assert adoptee.index.reach_index.compiles == compiles

    def test_adoption_is_copy_on_write(self, paper_schema, paper_inds):
        donor = ReasoningSession(paper_schema, paper_inds)
        donor.implies("MGR[NAME] <= PERSON[NAME]")
        adoptee = ReasoningSession(paper_schema, paper_inds)
        adoptee.adopt_compiled_from(donor)
        adoptee.retract(paper_inds[1])
        assert not adoptee.implies("MGR[NAME] <= PERSON[NAME]").verdict
        # The donor's own compiled state is untouched by the adoptee.
        assert donor.implies("MGR[NAME] <= PERSON[NAME]").verdict

    def test_chase_engine_is_shared_only_in_premise_order(self):
        """The chase fires rules in premise order, which can move its
        rounds: a reordered donor's engine must not be adopted."""
        schema = DatabaseSchema.from_dict(
            {"R": ("A", "B", "C"), "S": ("A", "B", "C"), "T": ("A", "B")}
        )
        premises = [parse_dependency(text) for text in (
            "T[A,B] <= R[B,C]", "T[A] <= S[B]", "R[C,A] <= S[C,B]",
            "T: A -> B", "R: A -> C", "T: B -> A",
        )]
        target = "T[B] <= R[B]"
        donor = ReasoningSession(schema, premises)
        assert donor.implies(target).stats["rounds"] == 2
        same_order = ReasoningSession(schema, premises)
        same_order.adopt_compiled_from(donor)
        assert same_order.index.chase_engine() is donor.index.chase_engine()
        reordered = ReasoningSession(schema, premises[::-1])
        reordered.adopt_compiled_from(donor)
        fresh = ReasoningSession(schema, premises[::-1])
        assert reordered.implies(target).stats == fresh.implies(target).stats
        assert fresh.implies(target).stats["rounds"] == 3

    def test_structural_mismatch_refused(self, paper_schema, paper_inds):
        donor = ReasoningSession(paper_schema, paper_inds)
        other = ReasoningSession(paper_schema, paper_inds[:1])
        with pytest.raises(ValueError):
            other.adopt_compiled_from(donor)

    def test_self_adoption_is_a_no_op(self, ind_session):
        ind_session.adopt_compiled_from(ind_session)
        assert ind_session.implies("MGR[NAME] <= PERSON[NAME]").verdict
