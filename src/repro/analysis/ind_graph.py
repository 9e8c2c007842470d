"""Graph views of IND/FD sets (networkx-backed).

These are analysis conveniences on top of the core engines — useful
for inspecting why an implication holds (paths), why a decision blew
up (orbit sizes), or where the finite-implication cycle rule fires
(strongly connected components).  networkx (the ``analysis`` extra) is
imported only by the functions that build its graphs:
:func:`summarize_ind_set` needs only the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import networkx as nx

from repro.core.ind_decision import Expression, successors
from repro.deps.base import Dependency
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.exceptions import SearchBudgetExceeded


def expression_graph(
    start: Expression,
    premises: Iterable[IND],
    max_nodes: int = 100_000,
) -> nx.DiGraph:
    """The reachable part of the Corollary 3.2 expression graph.

    Nodes are expressions ``(relation, attribute sequence)``; each edge
    carries the premise and IND2 selection that justifies it.
    Reachability in this graph **is** IND implication (Corollary 3.2).
    """
    import networkx as nx

    premise_list = list(premises)
    graph = nx.DiGraph()
    graph.add_node(start)
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for nxt, link in successors(current, premise_list):
            if nxt not in graph:
                if graph.number_of_nodes() >= max_nodes:
                    raise SearchBudgetExceeded(
                        f"expression graph exceeded {max_nodes} nodes",
                        explored=graph.number_of_nodes(),
                    )
                graph.add_node(nxt)
                frontier.append(nxt)
            if not graph.has_edge(current, nxt):
                graph.add_edge(
                    current, nxt,
                    premise=str(link.premise),
                    indices=link.indices,
                )
    return graph


def ind_flow_graph(premises: Iterable[IND]) -> nx.MultiDiGraph:
    """The relation-level flow graph: one node per relation, one edge
    per IND (labelled with its attribute mapping).

    Cycles here are where Rule (*) saturation, chase divergence, and
    the finite-implication phenomena live.
    """
    import networkx as nx

    graph = nx.MultiDiGraph()
    for premise in premises:
        graph.add_edge(
            premise.lhs_relation,
            premise.rhs_relation,
            label=str(premise),
            mapping=premise.attribute_mapping(),
        )
    return graph


def cardinality_digraph(dependencies: Iterable[Dependency]) -> nx.DiGraph:
    """The unary engine's cardinality digraph.

    Edge ``u -> v`` means ``|u| <= |v|`` in every finite model: INDs
    contribute source -> target; FDs ``R: A -> B`` contribute
    ``(R,B) -> (R,A)``.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for dep in dependencies:
        if isinstance(dep, IND) and dep.is_unary():
            graph.add_edge(
                (dep.lhs_relation, dep.lhs_attributes[0]),
                (dep.rhs_relation, dep.rhs_attributes[0]),
                kind="ind",
            )
        elif isinstance(dep, FD) and dep.is_unary():
            graph.add_edge(
                (dep.relation, dep.rhs[0]),
                (dep.relation, dep.lhs[0]),
                kind="fd",
            )
    return graph


def cycle_rule_components(dependencies: Iterable[Dependency]) -> list[set]:
    """The nontrivial SCCs of the cardinality digraph — exactly the
    places where the finite-implication cycle rule reverses
    dependencies (Theorem 4.4 / Section 6)."""
    import networkx as nx

    graph = cardinality_digraph(dependencies)
    return [
        set(component)
        for component in nx.strongly_connected_components(graph)
        if len(component) > 1
        or graph.has_edge(*(list(component) * 2))  # self-loop
    ]


@dataclass
class IndSetSummary:
    """Headline statistics of an IND set."""

    ind_count: int
    relations: int
    unary: int
    typed: int
    max_arity: int
    flow_cyclic: bool
    flow_components: int

    def __str__(self) -> str:
        return (
            f"{self.ind_count} INDs over {self.relations} relations "
            f"({self.unary} unary, {self.typed} typed, max arity "
            f"{self.max_arity}); flow graph "
            f"{'cyclic' if self.flow_cyclic else 'acyclic'} with "
            f"{self.flow_components} weakly connected component(s)"
        )


def _flow_shape(premises: list[IND]) -> tuple[bool, int]:
    """Whether :func:`ind_flow_graph` of ``premises`` has a cycle, and
    how many weakly connected components it has."""
    successors: dict[str, set[str]] = {}
    parent: dict[str, str] = {}  # a union-find forest over relations

    def root(relation: str) -> str:
        while parent.setdefault(relation, relation) != relation:
            relation = parent[relation]
        return relation

    for premise in premises:
        lhs, rhs = premise.lhs_relation, premise.rhs_relation
        successors.setdefault(lhs, set()).add(rhs)
        parent[root(lhs)] = root(rhs)
    components = sum(1 for relation in parent if parent[relation] == relation)
    try:
        TopologicalSorter(successors).prepare()
    except CycleError:
        return True, components
    return False, components


def summarize_ind_set(premises: Iterable[IND]) -> IndSetSummary:
    """Quick structural profile of an IND set."""
    premise_list = list(premises)
    flow_cyclic, flow_components = _flow_shape(premise_list)
    relations = set()
    for premise in premise_list:
        relations.update(premise.relations())
    return IndSetSummary(
        ind_count=len(premise_list),
        relations=len(relations),
        unary=sum(1 for p in premise_list if p.is_unary()),
        typed=sum(1 for p in premise_list if p.is_typed()),
        max_arity=max((p.arity for p in premise_list), default=0),
        flow_cyclic=flow_cyclic,
        flow_components=flow_components,
    )
