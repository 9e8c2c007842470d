"""The Corollary 3.2 decision procedure."""

import pytest

from repro.core.ind_decision import (
    ChainLink,
    chain_is_valid,
    decide_ind,
    reachable_expressions,
    successors,
)
from repro.deps.ind import IND
from repro.deps.parser import parse_dependencies, parse_dependency
from repro.exceptions import SearchBudgetExceeded


class TestBasicDecisions:
    def test_direct_premise(self):
        premise = parse_dependency("R[A] <= S[B]")
        assert decide_ind(premise, [premise]).implied

    def test_trivial_ind(self):
        result = decide_ind(parse_dependency("R[A] <= R[A]"), [])
        assert result.implied
        assert result.chain_length == 1
        assert result.links == []

    def test_transitivity_chain(self):
        premises = parse_dependencies(
            ["R[A] <= S[B]", "S[B] <= T[C]", "T[C] <= U[D]"]
        )
        target = parse_dependency("R[A] <= U[D]")
        result = decide_ind(target, premises)
        assert result.implied
        assert result.chain_length == 4

    def test_projection_needed(self):
        premises = [parse_dependency("R[A,B] <= S[C,D]")]
        assert decide_ind(parse_dependency("R[B] <= S[D]"), premises).implied
        assert decide_ind(parse_dependency("R[B,A] <= S[D,C]"), premises).implied

    def test_permutation_both_sides(self):
        premises = [parse_dependency("R[A,B] <= S[C,D]")]
        # One-sided permutation is NOT implied.
        assert not decide_ind(parse_dependency("R[A,B] <= S[D,C]"), premises).implied

    def test_not_implied_direction(self):
        premises = [parse_dependency("R[A] <= S[B]")]
        assert not decide_ind(parse_dependency("S[B] <= R[A]"), premises).implied

    def test_arity_blocks_application(self):
        # Premise covers only attribute A; expression over B cannot move.
        premises = [parse_dependency("R[A] <= S[B]")]
        assert not decide_ind(parse_dependency("R[C] <= S[B]"), premises).implied


class TestChains:
    def test_chain_endpoints(self):
        premises = parse_dependencies(["R[A] <= S[B]", "S[B] <= T[C]"])
        target = parse_dependency("R[A] <= T[C]")
        result = decide_ind(target, premises)
        assert result.chain[0] == ("R", ("A",))
        assert result.chain[-1] == ("T", ("C",))

    def test_chain_validates(self):
        premises = parse_dependencies(
            ["R[A,B] <= S[C,D]", "S[C] <= T[E]"]
        )
        target = parse_dependency("R[A] <= T[E]")
        result = decide_ind(target, premises)
        assert result.implied
        assert chain_is_valid(target, result.chain, result.links)

    def test_tampered_chain_rejected(self):
        premises = parse_dependencies(["R[A] <= S[B]", "S[B] <= T[C]"])
        target = parse_dependency("R[A] <= T[C]")
        result = decide_ind(target, premises)
        broken = list(result.chain)
        broken[1] = ("S", ("X",))
        assert not chain_is_valid(target, broken, result.links)

    def test_bfs_finds_shortest_chain(self):
        premises = parse_dependencies(
            ["R[A] <= T[C]", "R[A] <= S[B]", "S[B] <= T[C]"]
        )
        target = parse_dependency("R[A] <= T[C]")
        assert decide_ind(target, premises).chain_length == 2


class TestSuccessors:
    def test_mapping_respects_positions(self):
        premise = IND("R", ("A", "B"), "S", ("D", "C"))
        moves = list(successors(("R", ("B", "A")), [premise]))
        assert len(moves) == 1
        expression, link = moves[0]
        assert expression == ("S", ("C", "D"))
        assert isinstance(link, ChainLink)

    def test_inapplicable_relation(self):
        premise = IND("R", ("A",), "S", ("B",))
        assert list(successors(("T", ("A",)), [premise])) == []

    def test_inapplicable_attributes(self):
        premise = IND("R", ("A",), "S", ("B",))
        assert list(successors(("R", ("C",)), [premise])) == []

    def test_reflexive_decision_reports_a_frontier(self):
        # The trivial R[A] <= R[A] answer must report the same stats
        # shape as a searched one (frontier_peak >= 1, not 0).
        result = decide_ind(parse_dependency("R[A] <= R[A]"), [])
        assert result.implied
        assert result.frontier_peak == 1


class TestBudget:
    def test_budget_exceeded_raises(self):
        # A permutation IND generating a long orbit with a tiny budget.
        premise = parse_dependency("R[A,B,C] <= R[B,C,A]")
        target = parse_dependency("R[A,B,C] <= R[C,A,B]")
        with pytest.raises(SearchBudgetExceeded):
            decide_ind(target, [premise], max_nodes=1)

    def test_explored_counted(self):
        premises = parse_dependencies(["R[A] <= S[B]", "S[B] <= T[C]"])
        result = decide_ind(parse_dependency("R[A] <= T[C]"), premises)
        assert result.explored >= 1


class TestReachableExpressions:
    def test_closure_content(self):
        premises = parse_dependencies(["R[A] <= S[B]", "S[B] <= T[C]"])
        closure = reachable_expressions(("R", ("A",)), premises)
        assert closure == {("R", ("A",)), ("S", ("B",)), ("T", ("C",))}

    def test_permutation_orbit_size(self):
        # The 3-cycle generates an orbit of size 3 on full-width
        # expressions.
        premise = parse_dependency("R[A,B,C] <= R[B,C,A]")
        closure = reachable_expressions(("R", ("A", "B", "C")), [premise])
        assert len(closure) == 3
