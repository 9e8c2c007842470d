"""Finite implication for *unary* FDs and INDs.

This is the fragment where the paper's finite/unrestricted split lives
(Theorem 4.4, Section 6).  Its finite-implication arguments are
counting arguments:

* a unary IND ``R[A] c S[B]`` forces ``|r[A]| <= |s[B]|``;
* a unary FD ``R: A -> B`` forces ``|r[B]| <= |r[A]|``;
* around a *cycle* of such inequalities every cardinality is equal, so
  over **finite** databases each inclusion becomes an equality of
  columns (reversing the IND) and each FD becomes a bijection
  (reversing the FD).

The decision procedure implemented here closes the premise set under:

1. FD reflexivity and transitivity (per relation);
2. IND reflexivity and transitivity;
3. the **cycle rule**: build the cardinality digraph with an edge
   ``(R,A) -> (S,B)`` for each derived IND ``R[A] c S[B]`` and an edge
   ``(R,B) -> (R,A)`` for each derived FD ``R: A -> B``; every
   dependency whose edge lies inside a strongly connected component
   reverses;

and iterates to a fixpoint.  This is the axiomatization of Cosmadakis,
Kanellakis & Vardi (cited in the paper as [KCV]) for finite
implication of unary INDs and FDs, which they prove complete — and
which, being built from unbounded cycle rules, is *not* k-ary for any
``k``, exactly as Theorem 6.1 demands.

Dropping rule 3 gives the unrestricted-implication engine for the same
fragment (no FD/IND interaction exists there; [KCV] give a binary
complete axiomatization).

Rules 1 and 2 are applied as graph reachability rather than by joining
derived facts pairwise to a fixpoint: the transitive closure of a
binary relation is its path relation, so one graph search per column —
over the IND graph on columns and over each relation's FD graph on its
attributes — adds every ``(u, v)`` with ``u != v`` and a path from
``u`` to ``v``, exactly the facts the rules derive.  Rule 3 runs
Tarjan's SCC algorithm on the cardinality digraph, and each round of
reversals is re-closed the same way until nothing changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.exceptions import UnsupportedDependencyError
from repro.deps.base import Dependency
from repro.deps.fd import FD
from repro.deps.ind import IND

Node = tuple[str, str]
"""A column: (relation name, attribute name)."""

FdFact = tuple[str, str, str]
"""A derived unary FD: (relation, lhs attribute, rhs attribute)."""

IndFact = tuple[Node, Node]
"""A derived unary IND: (source column, target column)."""


def _as_unary_facts(
    dependencies: Iterable[Dependency],
) -> tuple[set[FdFact], set[IndFact]]:
    fds: set[FdFact] = set()
    inds: set[IndFact] = set()
    for dep in dependencies:
        if isinstance(dep, FD):
            if not dep.is_unary():
                raise UnsupportedDependencyError(f"{dep} is not unary")
            fds.add((dep.relation, dep.lhs[0], dep.rhs[0]))
        elif isinstance(dep, IND):
            if not dep.is_unary():
                raise UnsupportedDependencyError(f"{dep} is not unary")
            inds.add(
                (
                    (dep.lhs_relation, dep.lhs_attributes[0]),
                    (dep.rhs_relation, dep.rhs_attributes[0]),
                )
            )
        else:
            raise UnsupportedDependencyError(
                f"unary engine accepts FDs and INDs only, got {dep}"
            )
    return fds, inds


def _reachable(edges: dict[Node, list[Node]], source: Node) -> set[Node]:
    """Every node with a path of one or more edges from ``source``,
    ``source`` itself excluded."""
    seen = {source}
    stack = [source]
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    seen.discard(source)
    return seen


def _transitive_close(
    fds: set[FdFact], inds: set[IndFact]
) -> tuple[set[FdFact], set[IndFact]]:
    """Close under FD and IND reflexivity-free transitivity.

    Adds every ``(u, v)`` with ``u != v`` and a path from ``u`` to
    ``v`` — over the IND graph on columns, and over each relation's FD
    graph on its attributes — by one graph search per column, instead
    of joining facts pairwise until nothing changes.  The premises stay
    as they are (a trivial premise such as ``R: A -> A`` included).
    """
    ind_edges: dict[Node, list[Node]] = {}
    for src, dst in inds:
        ind_edges.setdefault(src, []).append(dst)
    fd_edges: dict[Node, list[Node]] = {}
    for rel, a, b in fds:
        fd_edges.setdefault((rel, a), []).append((rel, b))
    for src in ind_edges:
        inds.update((src, dst) for dst in _reachable(ind_edges, src))
    for rel, a in fd_edges:
        fds.update((rel, a, b) for _, b in _reachable(fd_edges, (rel, a)))
    return fds, inds


def _tarjan_sccs(nodes: set[Node], edges: dict[Node, set[Node]]) -> dict[Node, int]:
    """Iterative Tarjan SCC; returns a component id per node."""
    index_counter = 0
    indices: dict[Node, int] = {}
    lowlink: dict[Node, int] = {}
    on_stack: set[Node] = set()
    stack: list[Node] = []
    component: dict[Node, int] = {}
    comp_counter = 0

    for root in nodes:
        if root in indices:
            continue
        work: list[tuple[Node, list[Node], int]] = [(root, list(edges.get(root, ())), 0)]
        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors, pointer = work.pop()
            advanced = False
            while pointer < len(successors):
                nxt = successors[pointer]
                pointer += 1
                if nxt not in indices:
                    indices[nxt] = lowlink[nxt] = index_counter
                    index_counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((node, successors, pointer))
                    work.append((nxt, list(edges.get(nxt, ())), 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], indices[nxt])
            if advanced:
                continue
            if lowlink[node] == indices[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp_counter
                    if member == node:
                        break
                comp_counter += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return component


def _apply_cycle_rule(fds: set[FdFact], inds: set[IndFact]) -> bool:
    """Reverse every dependency whose cardinality edge lies in an SCC.

    Cardinality digraph: IND ``u c v`` contributes ``u -> v``
    (``|u| <= |v|``); FD ``R: a -> b`` contributes ``(R,b) -> (R,a)``
    (``|r[b]| <= |r[a]|``).  Inside an SCC all cardinalities coincide,
    so finiteness turns the inequalities into the equalities that
    justify the reversals.  Returns whether anything new was added.
    """
    nodes: set[Node] = set()
    edges: dict[Node, set[Node]] = {}

    def add_edge(u: Node, v: Node) -> None:
        nodes.add(u)
        nodes.add(v)
        edges.setdefault(u, set()).add(v)

    for src, dst in inds:
        add_edge(src, dst)
    for rel, a, b in fds:
        add_edge((rel, b), (rel, a))
    if not nodes:
        return False
    component = _tarjan_sccs(nodes, edges)

    changed = False
    for src, dst in list(inds):
        if component.get(src) == component.get(dst) and (dst, src) not in inds:
            inds.add((dst, src))
            changed = True
    for rel, a, b in list(fds):
        if component.get((rel, a)) == component.get((rel, b)) and (
            (rel, b, a) not in fds
        ):
            fds.add((rel, b, a))
            changed = True
    return changed


@dataclass
class UnaryClosure:
    """The closed fact sets of the unary engine, with query helpers."""

    fds: set[FdFact] = field(default_factory=set)
    inds: set[IndFact] = field(default_factory=set)

    def implies(self, target: Dependency) -> bool:
        if isinstance(target, FD):
            if not target.is_unary():
                raise UnsupportedDependencyError(f"{target} is not unary")
            rel, a, b = target.relation, target.lhs[0], target.rhs[0]
            return a == b or (rel, a, b) in self.fds
        if isinstance(target, IND):
            if not target.is_unary():
                raise UnsupportedDependencyError(f"{target} is not unary")
            src = (target.lhs_relation, target.lhs_attributes[0])
            dst = (target.rhs_relation, target.rhs_attributes[0])
            return src == dst or (src, dst) in self.inds
        raise UnsupportedDependencyError(
            f"unary engine decides FDs and INDs only, got {target}"
        )

    def derived_dependencies(self) -> list[Dependency]:
        """All derived facts as dependency objects (for inspection)."""
        result: list[Dependency] = []
        for rel, a, b in sorted(self.fds):
            result.append(FD(rel, (a,), (b,)))
        for (sr, sa), (tr, ta) in sorted(self.inds):
            result.append(IND(sr, (sa,), tr, (ta,)))
        return result


def unary_closure(
    premises: Iterable[Dependency], finite: bool = True
) -> UnaryClosure:
    """Close a unary FD/IND set under the applicable rules.

    ``finite=True`` includes the cycle rule (finite implication);
    ``finite=False`` leaves only the transitivity rules (unrestricted
    implication for this fragment).
    """
    fds, inds = _as_unary_facts(premises)
    _transitive_close(fds, inds)
    if finite:
        while _apply_cycle_rule(fds, inds):
            _transitive_close(fds, inds)
    return UnaryClosure(fds=fds, inds=inds)


def finitely_implies_unary(
    premises: Iterable[Dependency], target: Dependency
) -> bool:
    """Finite implication for unary FDs + INDs (complete per [KCV])."""
    return unary_closure(premises, finite=True).implies(target)


def unrestricted_implies_unary(
    premises: Iterable[Dependency], target: Dependency
) -> bool:
    """Unrestricted implication for unary FDs + INDs."""
    return unary_closure(premises, finite=False).implies(target)


def finite_unrestricted_gap(
    premises: Iterable[Dependency], candidates: Iterable[Dependency]
) -> list[Dependency]:
    """Candidates finitely implied but not unrestrictedly implied.

    Theorem 4.4's content: for FDs and INDs together this gap is
    non-empty (unlike for FDs alone or INDs alone).
    """
    premise_list = list(premises)
    finite = unary_closure(premise_list, finite=True)
    unrestricted = unary_closure(premise_list, finite=False)
    return [
        dep
        for dep in candidates
        if finite.implies(dep) and not unrestricted.implies(dep)
    ]


@dataclass
class CycleWitness:
    """An explanation of why the finite cycle rule fired for a
    dependency: the cardinality-graph cycle whose equalities justify
    the reversal (the paper's counting argument, spelled out)."""

    reversed_dependency: Dependency
    cycle: list[Node]

    def __str__(self) -> str:
        path = " <= ".join(f"|{rel}.{attr}|" for rel, attr in self.cycle)
        return (
            f"{self.reversed_dependency} is finitely implied because the "
            f"cardinalities {path} <= |{self.cycle[0][0]}.{self.cycle[0][1]}| "
            f"form a cycle, hence are all equal"
        )


def _bfs_path(
    edges: dict[Node, set[Node]], start: Node, goal: Node
) -> Optional[list[Node]]:
    """Shortest directed path in the cardinality digraph, or None."""
    if start == goal:
        return [start]
    from collections import deque

    parents: dict[Node, Node] = {}
    seen = {start}
    queue: deque[Node] = deque([start])
    while queue:
        node = queue.popleft()
        for nxt in edges.get(node, ()):
            if nxt in seen:
                continue
            seen.add(nxt)
            parents[nxt] = node
            if nxt == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            queue.append(nxt)
    return None


def explain_cycle_reversal(
    premises: Iterable[Dependency], target: Dependency
) -> Optional["CycleWitness"]:
    """A cardinality-cycle explanation for a finitely-implied target
    that is not unrestrictedly implied, or ``None``.

    The witness is a directed cycle through the target's two columns
    in the cardinality digraph of the premises' unrestricted closure:
    going around the loop forces every column cardinality on it to be
    equal in any finite model, which is what licenses the reversal.
    Both arcs (there and back) must exist; a reversal that only emerges
    after iterated fixpoint rounds has no single-cycle witness and
    yields ``None``.
    """
    premise_list = list(premises)
    finite = unary_closure(premise_list, finite=True)
    unrestricted = unary_closure(premise_list, finite=False)
    if not finite.implies(target) or unrestricted.implies(target):
        return None

    if isinstance(target, IND):
        u_node: Node = (target.lhs_relation, target.lhs_attributes[0])
        v_node: Node = (target.rhs_relation, target.rhs_attributes[0])
    elif isinstance(target, FD):
        # The FD target R: a -> b corresponds to the cardinality claim
        # |b| <= |a|; its columns are (R, a) and (R, b).
        u_node = (target.relation, target.rhs[0])
        v_node = (target.relation, target.lhs[0])
    else:  # pragma: no cover - guarded by engine
        raise UnsupportedDependencyError(str(target))

    edges: dict[Node, set[Node]] = {}
    for src, dst in unrestricted.inds:
        edges.setdefault(src, set()).add(dst)
    for rel, a, b in unrestricted.fds:
        edges.setdefault((rel, b), set()).add((rel, a))

    path_there = _bfs_path(edges, u_node, v_node)
    path_back = _bfs_path(edges, v_node, u_node)
    if path_there is None or path_back is None:
        return None  # reversal came from an iterated fixpoint round
    cycle = path_there + path_back[1:-1]
    return CycleWitness(reversed_dependency=target, cycle=cycle)
