"""The Corollary 3.2 decision procedure for INDs.

Corollary 3.2 characterizes implication: ``Sigma implies
Ra[A1..Am] c Rb[B1..Bm]`` iff there is a chain of *expressions*
``S1[X1], ..., Sw[Xw]`` with ``S1[X1] = Ra[A1..Am]``,
``Sw[Xw] = Rb[B1..Bm]``, and each link an IND2
(projection-and-permutation) instance of a member of Sigma.

The paper's procedure maintains the set ``Z`` of reachable
expressions; here it is a breadth-first search over the implicit
expression graph, with predecessor tracking so a witness chain (and
subsequently a formal proof) can be extracted.  The graph has up to
``sum_R  P(arity(R), m)`` nodes, which is why the problem is
PSPACE-complete in general (Theorem 3.3); an explicit node budget
turns pathological blow-ups into a clean exception.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from repro.exceptions import DependencyError, SearchBudgetExceeded
from repro.deps.ind import IND
from repro.core.ind_kernel import (
    INDKernel,
    KernelIndex,
    compile_ind,
    intern_expression,
)

Expression = tuple[str, tuple[str, ...]]
"""An expression ``S[X]``: a relation name plus an attribute sequence."""

PremiseIndexMap = Mapping[str, tuple[IND, ...]]
"""Premises bucketed by a relation name (left side for forward search)."""

Premises = Union[Iterable[IND], KernelIndex]
"""A flat premise collection, or the kernel-compiled index a
:class:`~repro.engine.index.PremiseIndex` owns."""


def index_by_lhs(premises: Iterable[IND]) -> dict[str, tuple[IND, ...]]:
    """Bucket premises by their left-hand relation.

    ``successors`` only ever applies premises whose left relation
    matches the expression's relation, so the bucket lookup replaces a
    linear scan over the whole premise set at every expanded node.
    """
    buckets: dict[str, list[IND]] = {}
    for premise in premises:
        buckets.setdefault(premise.lhs_relation, []).append(premise)
    return {name: tuple(bucket) for name, bucket in buckets.items()}


def _as_kernels(premises: Premises) -> KernelIndex:
    """The premises as a kernel index.

    A :class:`KernelIndex` passes through untouched — this is how the
    session shares one compilation across queries and mutations.  A
    flat collection is bucketed here; the per-IND kernel compilation
    itself is memoized on the IND objects, so re-wrapping the same
    premises is cheap.
    """
    if isinstance(premises, KernelIndex):
        return premises
    return KernelIndex(premises)


def _kernel_bucket_for(premises: Premises, relation: str) -> tuple[INDKernel, ...]:
    if isinstance(premises, KernelIndex):
        return premises.bucket(relation)
    return tuple(
        compile_ind(premise) for premise in premises
        if premise.lhs_relation == relation
    )


@dataclass(frozen=True)
class ChainLink:
    """One application of step (2): which premise produced the move,
    and which (zero-based) positions of its left side were selected."""

    premise: IND
    indices: tuple[int, ...]

    def instantiate(self) -> IND:
        """The IND2 instance ``Si[Xi] c Si+1[Xi+1]`` this link uses."""
        return self.premise.project_onto(self.indices)


@dataclass
class DecisionResult:
    """Outcome of the Corollary 3.2 procedure."""

    implied: bool
    target: IND
    chain: Optional[list[Expression]] = None
    links: Optional[list[ChainLink]] = None
    explored: int = 0
    frontier_peak: int = 0

    @property
    def chain_length(self) -> int:
        """Number of expressions in the witness chain (``w`` in the paper)."""
        return 0 if self.chain is None else len(self.chain)

    def describe(self) -> str:
        """Human-readable account of the decision."""
        verdict = "IMPLIED" if self.implied else "NOT implied"
        lines = [f"{self.target}: {verdict} (explored {self.explored} expressions)"]
        if self.chain:
            for index, (rel, attrs) in enumerate(self.chain):
                prefix = "  start " if index == 0 else f"  step {index}"
                lines.append(f"{prefix}: {rel}[{','.join(attrs)}]")
        return "\n".join(lines)


def expression_of_lhs(ind: IND) -> Expression:
    return (ind.lhs_relation, ind.lhs_attributes)


def expression_of_rhs(ind: IND) -> Expression:
    return (ind.rhs_relation, ind.rhs_attributes)


def successors(
    expression: Expression, premises: Premises
) -> Iterable[tuple[Expression, ChainLink]]:
    """All expressions reachable from ``expression`` in one step.

    A premise ``Ri[C1..Ck] c Rj[D1..Dk]`` applies when the expression's
    relation is ``Ri`` and every attribute of the expression occurs in
    ``C1..Ck``; the successor maps each attribute through the premise's
    positional correspondence (this is rule IND2).

    ``premises`` may be a flat collection or a pre-compiled
    :class:`KernelIndex`; each applicable premise is evaluated through
    its memoized kernel, so repeated calls over the same expressions
    are dictionary hits.
    :func:`successors_naive` is the retained textbook reference.
    """
    _relation, attrs = expression
    for kernel in _kernel_bucket_for(premises, _relation):
        entry = kernel.successor_of(attrs)
        if entry is not None:
            nxt, positions = entry
            yield nxt, ChainLink(kernel.ind, positions)


def successors_naive(
    expression: Expression, premises: Union[Iterable[IND], PremiseIndexMap]
) -> Iterable[tuple[Expression, ChainLink]]:
    """The uncompiled successor computation, kept as the differential
    reference for the kernel path: per-attribute ``lhs.index`` scans,
    one :class:`ChainLink` per applicable premise."""
    relation, attrs = expression
    if isinstance(premises, Mapping):
        candidates: Iterable[IND] = premises.get(relation, ())
    else:
        candidates = premises
    for premise in candidates:
        if premise.lhs_relation != relation:
            continue
        positions: list[int] = []
        applicable = True
        lhs = premise.lhs_attributes
        for attr in attrs:
            try:
                positions.append(lhs.index(attr))
            except ValueError:
                applicable = False
                break
        if not applicable:
            continue
        image = tuple(premise.rhs_attributes[p] for p in positions)
        yield (premise.rhs_relation, image), ChainLink(premise, tuple(positions))


def decide_ind(
    target: IND,
    premises: Premises,
    max_nodes: int = 2_000_000,
    tick=None,
) -> DecisionResult:
    """Decide ``premises |= target`` via expression-graph reachability.

    Sound and complete by Theorem 3.1 / Corollary 3.2 (and therefore
    decides finite and unrestricted implication simultaneously, which
    coincide for INDs).  Returns a witness chain when implied.

    ``tick`` is an optional zero-argument cooperative check (deadline
    polling), invoked every 256 BFS expansions.
    """
    kernels = _as_kernels(premises)
    start = intern_expression(expression_of_lhs(target))
    goal = intern_expression(expression_of_rhs(target))
    if start == goal:
        return DecisionResult(
            implied=True, target=target, chain=[start], links=[], explored=1,
            frontier_peak=1,
        )

    parents: dict[Expression, tuple[Expression, INDKernel, tuple[int, ...]]] = {}
    visited: set[Expression] = {start}
    queue: deque[Expression] = deque([start])
    buckets = kernels.buckets
    explored = 0
    frontier_peak = 1

    while queue:
        if len(queue) > frontier_peak:
            frontier_peak = len(queue)
        current = queue.popleft()
        explored += 1
        if tick is not None and not explored & 0xFF:
            tick()
        if explored > max_nodes:
            raise SearchBudgetExceeded(
                f"IND decision exceeded {max_nodes} expressions", explored=explored
            )
        relation, attrs = current
        for kernel in buckets.get(relation, ()):
            entry = kernel.successor_of(attrs)
            if entry is None:
                continue
            nxt = entry[0]
            if nxt in visited:
                continue
            visited.add(nxt)
            parents[nxt] = (current, kernel, entry[1])
            if nxt == goal:
                chain, links = _extract_chain(start, nxt, parents)
                return DecisionResult(
                    implied=True,
                    target=target,
                    chain=chain,
                    links=links,
                    explored=explored,
                    frontier_peak=frontier_peak,
                )
            queue.append(nxt)

    return DecisionResult(
        implied=False,
        target=target,
        explored=explored,
        frontier_peak=frontier_peak,
    )


def _extract_chain(
    start: Expression,
    goal: Expression,
    parents: Mapping[Expression, tuple[Expression, INDKernel, tuple[int, ...]]],
) -> tuple[list[Expression], list[ChainLink]]:
    """Walk the predecessor map back to ``start``.

    :class:`ChainLink` objects are allocated here — once per edge of
    the *witness chain* — rather than for every edge the BFS merely
    inspected.
    """
    chain = [goal]
    links: list[ChainLink] = []
    node = goal
    while node != start:
        prev, kernel, positions = parents[node]
        chain.append(prev)
        links.append(ChainLink(kernel.ind, positions))
        node = prev
    chain.reverse()
    links.reverse()
    return chain, links


def decide_ind_naive(
    target: IND,
    premises: Union[Iterable[IND], PremiseIndexMap],
    max_nodes: int = 2_000_000,
) -> DecisionResult:
    """The pre-kernel decision procedure, retained verbatim as the
    differential-testing and benchmarking reference for
    :func:`decide_ind` (same contract, same BFS order)."""
    premise_index = (
        premises if isinstance(premises, Mapping) else index_by_lhs(premises)
    )
    start = expression_of_lhs(target)
    goal = expression_of_rhs(target)
    if start == goal:
        return DecisionResult(
            implied=True, target=target, chain=[start], links=[], explored=1,
            frontier_peak=1,
        )

    parents: dict[Expression, tuple[Expression, ChainLink]] = {}
    visited: set[Expression] = {start}
    queue: deque[Expression] = deque([start])
    explored = 0
    frontier_peak = 1

    while queue:
        frontier_peak = max(frontier_peak, len(queue))
        current = queue.popleft()
        explored += 1
        if explored > max_nodes:
            raise SearchBudgetExceeded(
                f"IND decision exceeded {max_nodes} expressions", explored=explored
            )
        for nxt, link in successors_naive(current, premise_index):
            if nxt in visited:
                continue
            visited.add(nxt)
            parents[nxt] = (current, link)
            if nxt == goal:
                chain = [nxt]
                links: list[ChainLink] = []
                node = nxt
                while node != start:
                    prev, via = parents[node]
                    chain.append(prev)
                    links.append(via)
                    node = prev
                chain.reverse()
                links.reverse()
                return DecisionResult(
                    implied=True,
                    target=target,
                    chain=chain,
                    links=links,
                    explored=explored,
                    frontier_peak=frontier_peak,
                )
            queue.append(nxt)

    return DecisionResult(
        implied=False,
        target=target,
        explored=explored,
        frontier_peak=frontier_peak,
    )


def reachable_expressions(
    start: Expression,
    premises: Premises,
    max_nodes: int = 2_000_000,
) -> set[Expression]:
    """The full set ``Z`` of the paper's procedure: every expression
    reachable from ``start``, by an exhaustive BFS over the kernel
    buckets (for analysis and benchmarks)."""
    buckets = _as_kernels(premises).buckets
    start = intern_expression(start)
    visited: set[Expression] = {start}
    queue: deque[Expression] = deque([start])
    while queue:
        if len(visited) > max_nodes:
            raise SearchBudgetExceeded(
                f"expression closure exceeded {max_nodes} nodes",
                explored=len(visited),
            )
        relation, attrs = queue.popleft()
        for kernel in buckets.get(relation, ()):
            entry = kernel.successor_of(attrs)
            if entry is not None and entry[0] not in visited:
                visited.add(entry[0])
                queue.append(entry[0])
    return visited


def chain_is_valid(target: IND, chain: list[Expression], links: list[ChainLink]) -> bool:
    """Independent validation of a Corollary 3.2 witness chain.

    Checks conditions (i)-(v) of the corollary: endpoints match the
    target IND, and each consecutive pair is connected by an IND2
    instance of the cited premise.
    """
    if not chain:
        return False
    if chain[0] != expression_of_lhs(target):
        return False
    if chain[-1] != expression_of_rhs(target):
        return False
    if len(links) != len(chain) - 1:
        return False
    for (src, dst), link in zip(zip(chain, chain[1:]), links):
        try:
            instance = link.instantiate()
        except DependencyError:
            return False
        if expression_of_lhs(instance) != src or expression_of_rhs(instance) != dst:
            return False
    return True
