"""The premise lifecycle: add/retract/fork/version + scoped invalidation."""

import sys
import threading

import pytest

from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.parser import parse_dependencies
from repro.engine import MutationDelta, PremiseIndex, ReasoningSession
from repro.exceptions import DependencyError, UnsupportedDependencyError
from repro.model.schema import DatabaseSchema


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict(
        {
            "MGR": ("NAME", "DEPT"),
            "EMP": ("NAME", "DEPT"),
            "PERSON": ("NAME",),
            "ISO": ("X", "Y"),
            "ISO2": ("X", "Y"),
        }
    )


@pytest.fixture
def session(schema):
    return ReasoningSession(
        schema, [IND("MGR", ("NAME", "DEPT"), "EMP", ("NAME", "DEPT"))]
    )


class TestAddRetract:
    def test_add_changes_the_verdict(self, session):
        target = "MGR[NAME] <= PERSON[NAME]"
        assert not session.implies(target).verdict
        session.add("EMP[NAME] <= PERSON[NAME]")
        assert session.implies(target).verdict

    def test_retract_changes_the_verdict_back(self, session):
        target = "MGR[NAME] <= PERSON[NAME]"
        session.add("EMP[NAME] <= PERSON[NAME]")
        assert session.implies(target).verdict
        session.retract("EMP[NAME] <= PERSON[NAME]")
        assert not session.implies(target).verdict

    def test_add_accepts_strings_objects_and_iterables(self, session):
        session.add(IND("EMP", ("NAME",), "PERSON", ("NAME",)))
        session.add(["ISO[X] <= ISO2[X]", FD("EMP", "NAME", "DEPT")])
        assert len(session.dependencies) == 4

    def test_version_is_monotonic_and_stamped(self, session):
        assert session.version == 0
        answer0 = session.implies("MGR[NAME] <= EMP[NAME]")
        assert answer0.version == 0
        session.add("EMP[NAME] <= PERSON[NAME]")
        assert session.version == 1
        session.retract("EMP[NAME] <= PERSON[NAME]")
        assert session.version == 2
        answer2 = session.implies("MGR[NAME] <= EMP[NAME]")
        assert answer2.version == 2

    def test_mutation_returns_the_delta(self, session):
        delta = session.add(["EMP[NAME] <= PERSON[NAME]", "EMP: NAME -> DEPT"])
        assert isinstance(delta, MutationDelta)
        assert delta.ind_lhs_relations == {"EMP"}
        assert delta.fd_relations == {"EMP"}
        assert len(delta.added) == 2 and not delta.removed
        assert bool(delta)

    def test_retract_unknown_premise_raises_and_leaves_session_intact(
        self, session
    ):
        with pytest.raises(DependencyError):
            session.retract("EMP[NAME] <= PERSON[NAME]")
        assert session.version == 0
        assert len(session.dependencies) == 1

    def test_failed_batch_retract_is_atomic(self, session):
        session.add("EMP[NAME] <= PERSON[NAME]")
        with pytest.raises(DependencyError):
            session.retract(
                ["EMP[NAME] <= PERSON[NAME]", "ISO[X] <= ISO2[X]"]
            )
        assert len(session.dependencies) == 2  # nothing was removed
        assert session.version == 1

    def test_empty_mutation_is_a_no_op(self, session):
        delta = session.add([])
        assert not delta
        assert session.version == 0  # no phantom version bump
        assert not session.retract([])
        assert session.version == 0

    def test_validation_against_schema(self, session):
        with pytest.raises(DependencyError):
            session.add("MGR[SALARY] <= EMP[SALARY]")
        assert session.version == 0

    def test_mutations_never_rebuild_the_index(self, session):
        before = PremiseIndex.builds_total
        session.add("EMP[NAME] <= PERSON[NAME]")
        session.retract("EMP[NAME] <= PERSON[NAME]")
        session.fork()
        assert PremiseIndex.builds_total == before

    def test_routing_follows_the_premise_profile(self, session):
        from repro.engine import Engine

        target = "MGR[NAME] <= EMP[NAME]"
        assert session.route(target) is Engine.COROLLARY_32
        fd = FD("EMP", "NAME", "DEPT")
        session.add(fd)
        assert session.route(target) is Engine.CHASE
        session.retract(fd)
        assert session.route(target) is Engine.COROLLARY_32

    def test_all_unary_profile_follows_mutations(self):
        schema = DatabaseSchema.from_dict({"R": ("A", "B")})
        session = ReasoningSession(
            schema, [IND("R", ("A",), "R", ("B",)), FD("R", "A", "B")]
        )
        assert session.implies("R[B] <= R[A]", semantics="finite").verdict
        wide = IND("R", ("A", "B"), "R", ("B", "A"))
        session.add(wide)
        with pytest.raises(UnsupportedDependencyError):
            session.implies("R[B] <= R[A]", semantics="finite")
        session.retract(wide)
        assert session.implies("R[B] <= R[A]", semantics="finite").verdict


class TestScopedInvalidation:
    def _warm(self, session, target="MGR[NAME] <= PERSON[NAME]"):
        # Any query compiles its source's component into the index.
        session.implies(target)
        return session.index.reach_index

    def test_unrelated_ind_mutation_preserves_the_index(self, session):
        session.add("EMP[NAME] <= PERSON[NAME]")
        reach = self._warm(session)
        epoch, compiles = reach.epoch, reach.compiles
        session.add("ISO[X] <= ISO2[X]")  # ISO is not in the footprint
        assert reach.epoch == epoch  # monotone extension, no invalidation
        answer = session.implies("MGR[NAME] <= PERSON[NAME]")
        assert answer.cached and answer.verdict
        assert reach.compiles == compiles  # served without a recompile

    def test_related_ind_mutation_recompiles_on_the_next_query(self, session):
        session.add(["EMP[NAME] <= PERSON[NAME]", "ISO[X] <= ISO2[X]"])
        reach = self._warm(session)
        self._warm(session, "ISO[X] <= ISO2[X]")
        epoch = reach.epoch
        # EMP is inside the materialized footprint: the whole compiled
        # epoch is invalidated, lazily — nothing recompiles until asked.
        session.retract("EMP[NAME] <= PERSON[NAME]")
        assert reach.epoch == epoch and reach.dirty
        assert not session.implies("MGR[NAME] <= PERSON[NAME]").verdict
        assert reach.epoch == epoch + 1 and not reach.dirty

    def test_mutation_burst_costs_one_invalidation(self, session):
        session.add("EMP[NAME] <= PERSON[NAME]")
        reach = self._warm(session)
        invalidations = reach.invalidations
        session.retract("EMP[NAME] <= PERSON[NAME]")
        session.add("EMP[NAME] <= PERSON[NAME]")
        session.add("EMP[DEPT] <= PERSON[NAME]")
        assert reach.invalidations == invalidations + 1  # marked once
        assert session.implies("MGR[NAME] <= PERSON[NAME]").verdict

    def test_stale_answers_are_impossible_after_retract(self, session):
        session.add("EMP[NAME] <= PERSON[NAME]")
        self._warm(session)
        session.retract("MGR[NAME,DEPT] <= EMP[NAME,DEPT]")
        assert not session.implies("MGR[NAME] <= PERSON[NAME]").verdict

    def test_new_edge_extends_reachability_after_add(self, session):
        self._warm(session)  # PERSON unreachable, compiled
        session.add("EMP[NAME] <= PERSON[NAME]")  # EMP is in the footprint
        assert session.implies("MGR[NAME] <= PERSON[NAME]").verdict

    def test_fd_mutation_keeps_the_reach_index(self, session):
        session.add("EMP[NAME] <= PERSON[NAME]")
        reach = self._warm(session)
        epoch, compiles = reach.epoch, reach.compiles
        session.add(FD("EMP", "NAME", "DEPT"))
        assert reach.epoch == epoch and not reach.dirty
        # The premise set is now mixed, so IND targets route to the
        # chase — but the compiled closure itself survived untouched.
        assert reach.compiles == compiles

    def test_fd_mutation_scopes_closure_memos_by_relation(self, schema):
        session = ReasoningSession(
            schema, [FD("EMP", "NAME", "DEPT"), FD("ISO", "X", "Y")]
        )
        session.closure("EMP", ["NAME"])
        session.closure("ISO", ["X"])
        assert session.index.closure_cache_size == 2
        session.add(FD("EMP", "DEPT", "NAME"))
        assert session.index.closure_cache_size == 1  # ISO's memo survives
        assert session.closure("EMP", ["DEPT"]) == {"DEPT", "NAME"}

    def test_fd_mutation_invalidates_the_keys_memo(self, schema):
        session = ReasoningSession(schema, [FD("EMP", "NAME", "DEPT")])
        assert session.keys("EMP") == {"EMP": [frozenset({"NAME"})]}
        assert session.index.keys_cache_size == 1
        session.keys("EMP")
        assert session.index.keys_cache_size == 1  # served from the memo
        session.retract(FD("EMP", "NAME", "DEPT"))
        assert session.index.keys_cache_size == 0
        assert session.keys("EMP") == {"EMP": [frozenset({"NAME", "DEPT"})]}

    def test_unary_closure_cache_drops_on_any_mutation(self):
        schema = DatabaseSchema.from_dict({"R": ("A", "B")})
        session = ReasoningSession(schema, [IND("R", ("A",), "R", ("B",))])
        fd = FD("R", "A", "B")
        session.add(fd)
        assert session.implies("R[B] <= R[A]", semantics="finite").verdict
        session.retract(fd)
        assert not session.implies("R[B] <= R[A]", semantics="finite").verdict


class TestFork:
    def test_child_mutations_do_not_leak_into_the_parent(self, session):
        child = session.fork()
        child.add("EMP[NAME] <= PERSON[NAME]")
        assert child.implies("MGR[NAME] <= PERSON[NAME]").verdict
        assert not session.implies("MGR[NAME] <= PERSON[NAME]").verdict
        assert session.version == 0 and child.version == 1

    def test_parent_mutations_do_not_leak_into_the_child(self, session):
        child = session.fork()
        session.add("EMP[NAME] <= PERSON[NAME]")
        assert session.implies("MGR[NAME] <= PERSON[NAME]").verdict
        assert not child.implies("MGR[NAME] <= PERSON[NAME]").verdict

    def test_fork_starts_with_warm_caches(self, session):
        session.add("EMP[NAME] <= PERSON[NAME]")
        session.implies_all(
            ["MGR[NAME] <= PERSON[NAME]", "MGR[NAME] <= PERSON[NAME]"]
        )
        child = session.fork()
        answer = child.implies("MGR[NAME] <= PERSON[NAME]")
        assert answer.cached and answer.verdict

    def test_fork_inherits_the_version(self, session):
        session.add("EMP[NAME] <= PERSON[NAME]")
        child = session.fork()
        assert child.version == session.version == 1

    def test_fork_shares_closure_memos_copy_on_write(self, schema):
        session = ReasoningSession(schema, [FD("EMP", "NAME", "DEPT")])
        session.closure("EMP", ["NAME"])
        child = session.fork()
        assert child.index.closure_cache_size == 1
        child.add(FD("EMP", "DEPT", "NAME"))
        assert child.index.closure_cache_size == 0
        assert session.index.closure_cache_size == 1  # parent untouched


class TestWhatIf:
    TARGETS = ["MGR[NAME] <= PERSON[NAME]", "MGR[NAME] <= EMP[NAME]"]

    def test_reports_flips(self, session):
        flips = session.whatif(self.TARGETS, add="EMP[NAME] <= PERSON[NAME]")
        assert [flip.flipped for flip in flips] == [True, False]
        assert flips[0].before.verdict is False
        assert flips[0].after.verdict is True

    def test_parent_session_is_untouched(self, session):
        session.whatif(self.TARGETS, add="EMP[NAME] <= PERSON[NAME]")
        assert session.version == 0
        assert len(session.dependencies) == 1

    def test_retract_side(self, session):
        session.add("EMP[NAME] <= PERSON[NAME]")
        flips = session.whatif(
            self.TARGETS, retract="MGR[NAME,DEPT] <= EMP[NAME,DEPT]"
        )
        assert [flip.flipped for flip in flips] == [True, True]

    def test_versions_are_stamped_across_the_diff(self, session):
        flips = session.whatif(self.TARGETS, add="EMP[NAME] <= PERSON[NAME]")
        assert flips[0].before.version == 0
        assert flips[0].after.version == 1

    def test_an_unknown_never_flips(self):
        """A chase that blows its budget degrades to unknown, and a flip
        needs two known verdicts."""
        schema = DatabaseSchema.from_dict(
            {"R": ("A", "B"), "T": ("X", "Y"), "U": ("X", "Y")}
        )
        diverging = ReasoningSession(schema, parse_dependencies(
            "R[B] <= R[A]\nR: A -> B\nT[X,Y] <= U[X,Y]"
        ), max_rounds=10)
        [flip] = diverging.whatif(["R: B -> A"], add="R: B -> A",
                                  degrade=True)
        assert (flip.before.verdict, flip.after.verdict) == (None, True)
        assert flip.before.stats["reason"] == "chase-budget"
        assert flip.flipped is False

    def test_forks_share_the_compiled_chase_across_threads(self, schema):
        """A served whatif chases on a fork in a worker thread while the
        tenant chases on the event loop, through one compiled engine."""
        premises = parse_dependencies(
            "MGR[NAME,DEPT] <= EMP[NAME,DEPT]\nEMP: NAME -> DEPT\n"
            "EMP[NAME] <= PERSON[NAME]\nISO[X,Y] <= ISO2[Y,X]\n"
            "ISO2: X -> Y"
        )
        targets = ["MGR: NAME -> DEPT", "MGR[NAME] <= PERSON[NAME]",
                   "PERSON[NAME] <= MGR[NAME]", "ISO: Y -> X",
                   "ISO[Y] <= ISO2[X]", "EMP: DEPT -> NAME"]
        expected = [(a.verdict, a.stats["rounds"]) for a in
                    ReasoningSession(schema, premises).implies_all(targets)]
        parent = ReasoningSession(schema, premises)
        parent.index.chase_engine()
        sessions = [parent] + [parent.fork() for _ in range(3)]
        assert {id(s.index.chase_engine()) for s in sessions} == {
            id(parent.index.chase_engine())
        }
        results, errors = [[] for _ in sessions], []

        def ask(session, out):
            try:
                for _ in range(20):
                    out.append([(a.verdict, a.stats["rounds"])
                                for a in session.implies_all(targets)])
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=pair)
                       for pair in zip(sessions, results)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == [[expected] * 20] * len(sessions)


class TestJsonViews:
    def test_answer_to_json_round_trips_through_json(self, session):
        import json

        session.add("EMP[NAME] <= PERSON[NAME]")
        payload = session.implies("MGR[NAME] <= PERSON[NAME]").to_json()
        decoded = json.loads(json.dumps(payload))
        assert decoded["verdict"] is True
        assert decoded["engine"] == "corollary-3.2"
        assert decoded["semantics"] == "unrestricted"
        assert decoded["version"] == 1
        assert decoded["chain"][0] == {
            "relation": "MGR", "attributes": ["NAME"],
        }
        assert decoded["chain"][-1]["relation"] == "PERSON"

    def test_answer_to_json_without_chain(self, session):
        payload = session.implies("PERSON[NAME] <= MGR[NAME]").to_json()
        assert payload["verdict"] is False
        assert "chain" not in payload

    def test_check_report_to_json(self, schema):
        import json

        from repro.model.builders import database

        db = database(schema, {"MGR": [("Ghost", "Ops")]})
        session = ReasoningSession(
            schema,
            [IND("MGR", ("NAME", "DEPT"), "EMP", ("NAME", "DEPT"))],
            db=db,
        )
        payload = session.check().to_json()
        decoded = json.loads(json.dumps(payload))
        assert decoded["ok"] is False
        assert decoded["total"] == 1 and decoded["satisfied"] == 0
        assert decoded["results"][0]["holds"] is False
        assert ["Ghost", "Ops"] in decoded["results"][0]["witnesses"]


class TestCoerceOnce:
    def test_implies_all_validates_each_target_once(
        self, session, monkeypatch
    ):
        calls = {"n": 0}
        original = IND.validate

        def counting(self, schema):
            calls["n"] += 1
            return original(self, schema)

        monkeypatch.setattr(IND, "validate", counting)
        session.implies_all(
            ["MGR[NAME] <= EMP[NAME]", "MGR[DEPT] <= EMP[DEPT]"]
        )
        assert calls["n"] == 2

    def test_whatif_validates_each_dependency_once(
        self, session, monkeypatch
    ):
        calls = {"n": 0}
        original = IND.validate

        def counting(self, schema):
            calls["n"] += 1
            return original(self, schema)

        monkeypatch.setattr(IND, "validate", counting)
        flips = session.whatif(
            ["MGR[NAME] <= EMP[NAME]", "MGR[DEPT] <= EMP[DEPT]"],
            retract=["MGR[NAME,DEPT] <= EMP[NAME,DEPT]"],
        )
        assert calls["n"] == 3
        assert [flip.flipped for flip in flips] == [True, True]
