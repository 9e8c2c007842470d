"""The general FD+IND chase."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.core.fdind_chase import (
    ChaseEngine,
    ChaseInstance,
    chase_database,
    chase_implies,
)
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.parser import parse_dependencies, parse_dependency
from repro.deps.rd import RD
from repro.exceptions import ChaseBudgetExceeded, DependencyError
from repro.model.builders import database
from repro.model.schema import DatabaseSchema


@pytest.fixture
def schema():
    return DatabaseSchema.from_dict({"R": ("A", "B"), "S": ("C", "D")})


class TestInstanceCore:
    def test_union_find_merge(self, schema):
        instance = ChaseInstance(schema)
        a = instance.fresh_null()
        b = instance.fresh_null()
        assert not instance.same(a, b)
        instance.merge(a, b, FD("R", ("A",), ("B",)))
        assert instance.same(a, b)

    def test_constant_conflict_raises(self, schema):
        instance = ChaseInstance(schema)
        a = instance.fresh_constant("x")
        b = instance.fresh_constant("y")
        with pytest.raises(DependencyError):
            instance.merge(a, b, FD("R", ("A",), ("B",)))

    def test_constant_survives_merge_with_null(self, schema):
        instance = ChaseInstance(schema)
        c = instance.fresh_constant("x")
        n = instance.fresh_null()
        instance.merge(c, n, FD("R", ("A",), ("B",)))
        assert instance.name_of(n) == "x"

    def test_value_names(self, schema):
        """Named values keep their names; an unnamed null reads as
        ``n<id>`` and an unnamed constant as ``c<id>``."""
        instance = ChaseInstance(schema)
        values = [
            instance.fresh_constant(), instance.fresh_null(),
            instance.fresh_null("x"), instance.fresh_constant("k"),
            instance.fresh_constant(),
        ]
        assert values == [0, 1, 2, 3, 4]
        assert [instance.name_of(v) for v in values] == [
            "c0", "n1", "x", "k", "c4",
        ]

    def test_rows_deduplicate_after_merge(self, schema):
        instance = ChaseInstance(schema)
        a, b = instance.fresh_null(), instance.fresh_null()
        c = instance.fresh_null()
        instance.add_row("R", [a, c])
        instance.add_row("R", [b, c])
        instance.merge(a, b, FD("R", ("A",), ("B",)))
        instance.normalize()
        assert len(instance.relations["R"]) == 1


class TestFdImplicationByChase:
    def test_fd_transitivity(self, schema):
        premises = [FD("R", ("A",), ("B",))]
        cert = chase_implies(schema, premises, FD("R", ("A",), ("B",)))
        assert cert.implied

    def test_fd_through_inds(self):
        # Proposition 4.1 shape: the chase derives the pulled-back FD.
        schema = DatabaseSchema.from_dict({"R": ("X", "Y"), "S": ("T", "U")})
        premises = [
            IND("R", ("X", "Y"), "S", ("T", "U")),
            FD("S", ("T",), ("U",)),
        ]
        cert = chase_implies(schema, premises, FD("R", ("X",), ("Y",)))
        assert cert.implied

    def test_fd_not_implied_gives_counterexample(self, schema):
        premises = [FD("R", ("A",), ("B",))]
        cert = chase_implies(schema, premises, FD("R", ("B",), ("A",)))
        assert not cert.implied
        counter = cert.counterexample()
        assert counter is not None
        assert counter.satisfies_all(premises)
        assert not counter.satisfies(FD("R", ("B",), ("A",)))


    def test_counterexample_value_names(self, schema):
        """The start rows' nulls keep their names (``x_A``, ``b1``,
        ``b2``), IND-created nulls read as ``n<id>``, and a merged-away
        null reads as its representative.  The two INDs share their
        right side; the empty-lhs FD merges every ``D`` value."""
        premises = parse_dependencies(["R[A] <= S[C]", "R[B] <= S[C]"])
        premises.append(FD("S", None, ("D",)))
        cert = chase_implies(schema, premises, parse_dependency("R: A -> B"))
        counter = cert.counterexample()
        assert sorted(map(tuple, counter["R"])) == [
            ("x_A", "b1"), ("x_A", "b2"),
        ]
        assert sorted(map(tuple, counter["S"])) == [
            ("b1", "n4"), ("b2", "n4"), ("x_A", "n4"),
        ]


class TestIndImplicationByChase:
    def test_ind_transitivity(self, schema):
        premises = parse_dependencies(["R[A] <= S[C]", "S[C] <= S[D]"])
        cert = chase_implies(schema, premises, parse_dependency("R[A] <= S[D]"))
        assert cert.implied

    def test_ind_not_implied(self, schema):
        premises = [parse_dependency("R[A] <= S[C]")]
        cert = chase_implies(schema, premises, parse_dependency("S[C] <= R[A]"))
        assert not cert.implied

    def test_agrees_with_syntactic_engine(self, rng):
        from repro.core.ind_prover import implies_ind
        from repro.workloads.random_deps import random_implication_instance

        decided = 0
        for _ in range(25):
            schema, premises, target = random_implication_instance(rng)
            syntactic = implies_ind(premises, target)
            try:
                semantic = chase_implies(
                    schema, premises, target, max_rounds=40, max_tuples=20_000
                ).implied
            except ChaseBudgetExceeded:
                # Cyclic IND sets can make the chase diverge on
                # negative instances; the syntactic engine must then
                # have answered False (a positive answer would have
                # been reached before the budget).
                assert not syntactic
                continue
            decided += 1
            assert syntactic == semantic, f"{target} from {premises}"
        assert decided > 0


class TestRdImplicationByChase:
    def test_proposition_4_3_shape(self):
        schema = DatabaseSchema.from_dict({"R": ("X", "Y", "Z"), "S": ("T", "U")})
        premises = [
            IND("R", ("X", "Y"), "S", ("T", "U")),
            IND("R", ("X", "Z"), "S", ("T", "U")),
            FD("S", ("T",), ("U",)),
        ]
        cert = chase_implies(schema, premises, RD("R", ("Y",), ("Z",)))
        assert cert.implied

    def test_rd_not_implied_without_fd(self):
        schema = DatabaseSchema.from_dict({"R": ("X", "Y", "Z"), "S": ("T", "U")})
        premises = [
            IND("R", ("X", "Y"), "S", ("T", "U")),
            IND("R", ("X", "Z"), "S", ("T", "U")),
        ]
        cert = chase_implies(schema, premises, RD("R", ("Y",), ("Z",)))
        assert not cert.implied


class TestDivergence:
    def test_cyclic_inds_with_fresh_nulls_terminate(self, schema):
        # R[A] c S[C], S[C] c R[A] cycles but reuses values: terminates.
        premises = parse_dependencies(["R[A] <= S[C]", "S[C] <= R[A]"])
        cert = chase_implies(schema, premises, parse_dependency("R[B] <= S[D]"))
        assert not cert.implied

    def test_budget_raises(self):
        # A genuinely diverging chase: R[B] c R[A] with A -> B forces an
        # infinite fresh chain... build one via two relations feeding
        # each other with alternating columns.
        schema = DatabaseSchema.from_dict({"R": ("A", "B")})
        premises = [
            IND("R", ("B",), "R", ("A",)),
            FD("R", ("A",), ("B",)),
        ]
        # Target FD keeps chasing; budget must stop it cleanly if it
        # diverges.  (This particular chase terminates or not depending
        # on null reuse; the point is the budget path works.)
        try:
            chase_implies(schema, premises, FD("R", ("B",), ("A",)),
                          max_rounds=3, max_tuples=10)
        except ChaseBudgetExceeded as exc:
            assert exc.rounds <= 3 or exc.tuples >= 10


REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

# A chase whose merges rewrite rows of several relations at once: the
# order the rewritten rows are re-journaled in decides which rows each
# rule scans next, hence the event log and the rows-scanned count.
MERGING_SCHEMA = {"R": ("A", "B", "C"), "S": ("A", "B", "C"), "T": ("A", "B")}
MERGING_PREMISES = [
    "S[B,C,A] <= R[B,A,C]", "S[A,B,C] <= S[C,B,A]", "S[B] <= S[C]",
    "S[A,C,B] <= S[B,A,C]", "T[A] <= S[A]", "S[B,A,C] <= R[A,B,C]",
    "S: C -> B", "R: C,A -> A", "R: B -> A", "R: A,B -> C",
]
MERGING_BUDGET = {"max_rounds": 15, "max_tuples": 1500}

HASH_SEED_PROBE = f"""
import json
from repro.core.fdind_chase import chase_implies
from repro.deps.parser import parse_dependencies, parse_dependency
from repro.model.schema import DatabaseSchema

outcome = chase_implies(
    DatabaseSchema.from_dict({MERGING_SCHEMA!r}),
    parse_dependencies({MERGING_PREMISES!r}),
    parse_dependency("T: B -> A"),
    **{MERGING_BUDGET!r},
).outcome
print(json.dumps({{"rounds": outcome.rounds,
                  "rows_scanned": outcome.rows_scanned,
                  "events": [repr(event) for event in outcome.instance.events]}}))
"""


class TestCompiledEngine:
    """Per-question rule pruning, and counts that repeat run to run."""

    def test_reaching_keeps_only_rules_the_start_relation_reaches(self):
        schema = DatabaseSchema.from_dict(
            {"R": ("A", "B"), "S": ("C", "D"), "T": ("E", "F")}
        )
        premises = parse_dependencies([
            "T[E] <= R[A]", "R[A] <= S[C]", "S: C -> D", "T: E -> F",
        ])
        engine = ChaseEngine(schema, premises)
        from_r = engine.reaching("R")
        assert from_r.inds == [parse_dependency("R[A] <= S[C]")]
        assert from_r.fds == [parse_dependency("S: C -> D")]
        assert engine.reaching("R") is from_r  # memoized
        assert engine.reaching("T") is engine  # T reaches every rule
        assert engine.reaching("S").inds == []

    def test_one_engine_serves_concurrent_runs(self):
        """Runs keep their state to themselves: threads sharing one
        engine (and racing to fill its per-relation memo) get exactly
        the answers a lone caller gets."""
        schema = DatabaseSchema.from_dict(MERGING_SCHEMA)
        premises = parse_dependencies(MERGING_PREMISES)
        targets = [parse_dependency(text) for text in (
            "T: B -> A", "S: A -> C", "T[B] <= S[C]", "S: B -> A", "R: C -> A",
        )]

        def signature(certificate):
            outcome = certificate.outcome
            return (certificate.implied, outcome.rounds, outcome.rows_scanned,
                    tuple(outcome.instance.events))

        alone = ChaseEngine(schema, premises)
        expected = {
            target: signature(alone.implies(target, **MERGING_BUDGET))
            for target in targets
        }
        shared = ChaseEngine(schema, premises)
        results, errors = [], []

        def worker():
            try:
                for target in targets * 3:
                    answer = shared.implies(target, **MERGING_BUDGET)
                    results.append((target, signature(answer)))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 4 * 3 * len(targets)
        assert all(got == expected[target] for target, got in results)

    def test_counts_do_not_depend_on_the_string_hash_seed(self):
        runs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED=seed)
            completed = subprocess.run(
                [sys.executable, "-c", HASH_SEED_PROBE],
                env=env, capture_output=True, text=True, timeout=120,
                check=True,
            )
            runs.append(json.loads(completed.stdout))
        assert runs[0]["rows_scanned"] == runs[1]["rows_scanned"]
        assert runs[0]["events"] == runs[1]["events"]
        assert runs[0]["rounds"] == runs[1]["rounds"] == 4


class TestChaseDatabase:
    def test_repair_adds_referenced_tuples(self, schema):
        db = database(schema, {"R": [(1, 2)]})
        ind = parse_dependency("R[A] <= S[C]")
        repaired = chase_database(db, [ind])
        assert repaired.satisfies(ind)
        assert len(repaired["S"]) == 1

    def test_repair_preserves_existing(self, schema):
        db = database(schema, {"R": [(1, 2)], "S": [(9, 9)]})
        repaired = chase_database(db, [parse_dependency("R[A] <= S[C]")])
        assert ("9", "9") in {
            tuple(row) for row in repaired["S"]
        } or (9, 9) in repaired["S"] or ("9", "9") in repaired["S"]

    def test_repair_names_constants_and_nulls(self, schema):
        db = database(schema, {"R": [(1, 2)]})
        repaired = chase_database(
            db, parse_dependencies(["R[A] <= S[C]", "R[B] <= S[D]"])
        )
        assert sorted(map(tuple, repaired["R"])) == [("1", "2")]
        assert sorted(map(tuple, repaired["S"])) == [("1", "n3"), ("n4", "2")]

    def test_fd_conflict_reported(self, schema):
        db = database(schema, {"R": [(1, 2), (1, 3)]})
        with pytest.raises(DependencyError):
            chase_database(db, [FD("R", ("A",), ("B",))])
