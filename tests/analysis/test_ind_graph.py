"""Graph analysis of dependency sets."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ind_graph import (
    cardinality_digraph,
    cycle_rule_components,
    expression_graph,
    ind_flow_graph,
    summarize_ind_set,
)
from repro.core.ind_decision import decide_ind
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.parser import parse_dependencies, parse_dependency


class TestExpressionGraph:
    def test_reachability_is_implication(self):
        premises = parse_dependencies(["R[A] <= S[B]", "S[B] <= T[C]"])
        graph = expression_graph(("R", ("A",)), premises)
        target = parse_dependency("R[A] <= T[C]")
        assert nx.has_path(graph, ("R", ("A",)), ("T", ("C",))) == (
            decide_ind(target, premises).implied
        )

    def test_edges_carry_justifications(self):
        premises = [parse_dependency("R[A,B] <= S[C,D]")]
        graph = expression_graph(("R", ("B",)), premises)
        edge_data = graph.get_edge_data(("R", ("B",)), ("S", ("D",)))
        assert edge_data["indices"] == (1,)

    def test_orbit_of_permutation(self):
        premises = [parse_dependency("R[A,B,C] <= R[B,C,A]")]
        graph = expression_graph(("R", ("A", "B", "C")), premises)
        assert graph.number_of_nodes() == 3
        # The orbit is a directed cycle.
        assert nx.is_strongly_connected(graph)


class TestFlowGraph:
    def test_nodes_and_edges(self):
        premises = parse_dependencies(["R[A] <= S[B]", "S[B] <= R[A]"])
        graph = ind_flow_graph(premises)
        assert set(graph.nodes) == {"R", "S"}
        assert graph.number_of_edges() == 2

    def test_cyclicity_detection(self):
        acyclic = parse_dependencies(["R[A] <= S[B]"])
        cyclic = parse_dependencies(["R[A] <= S[B]", "S[B] <= R[A]"])
        assert nx.is_directed_acyclic_graph(ind_flow_graph(acyclic))
        assert not nx.is_directed_acyclic_graph(ind_flow_graph(cyclic))


class TestCardinalityGraph:
    def test_theorem_4_4_component(self):
        sigma = [FD("R", ("A",), ("B",)), IND("R", ("A",), "R", ("B",))]
        components = cycle_rule_components(sigma)
        assert any({("R", "A"), ("R", "B")} <= comp for comp in components)

    def test_no_cycle_no_component(self):
        sigma = [FD("R", ("A",), ("B",)), IND("R", ("B",), "S", ("A",))]
        assert cycle_rule_components(sigma) == []

    def test_edge_directions(self):
        sigma = [FD("R", ("A",), ("B",)), IND("R", ("A",), "S", ("B",))]
        graph = cardinality_digraph(sigma)
        # FD A->B: |B| <= |A| gives edge (R,B) -> (R,A).
        assert graph.has_edge(("R", "B"), ("R", "A"))
        # IND: |source| <= |target|.
        assert graph.has_edge(("R", "A"), ("S", "B"))


class TestSummary:
    def test_profile_fields(self):
        premises = parse_dependencies(
            ["R[A] <= S[A]", "R[A,B] <= S[A,B]", "S[A] <= R[B]"]
        )
        summary = summarize_ind_set(premises)
        assert summary.ind_count == 3
        assert summary.relations == 2
        assert summary.unary == 2
        assert summary.typed == 2
        assert summary.max_arity == 2
        assert summary.flow_cyclic
        assert "3 INDs" in str(summary)

    def test_empty_set(self):
        summary = summarize_ind_set([])
        assert summary.ind_count == 0
        assert not summary.flow_cyclic

    @settings(max_examples=150, deadline=None)
    @given(edges=st.lists(st.tuples(*[st.sampled_from("RSTUVW")] * 2),
                          max_size=10))
    def test_flow_facts_match_networkx(self, edges):
        """The summary's flow-graph facts, computed without networkx,
        are networkx's."""
        premises = [IND(lhs, ("A",), rhs, ("A",)) for lhs, rhs in edges]
        flow = ind_flow_graph(premises)
        summary = summarize_ind_set(premises)
        assert summary.flow_cyclic == (not nx.is_directed_acyclic_graph(flow))
        assert summary.flow_components == (
            nx.number_weakly_connected_components(flow)
        )
