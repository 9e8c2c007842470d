"""Amortized IND implication: an SCC-condensed bitset closure index.

The Corollary 3.2 procedure answers ``Sigma |= R[X] c S[Y]`` by
reachability in the implicit expression graph, and PR 3's kernels made
one such BFS fast.  But the serving cost model is different: millions
of queries against one slowly-mutating premise set, where walking the
graph per question — even with memoized successor edges — is the wrong
asymptotic.  :class:`ReachIndex` applies the classic amortization from
datalog/IVM engines:

1. **Materialize** the expression subgraph reachable from every source
   expression ever queried.  Each node is expanded exactly once (its
   successor edges, in premise-bucket order, are recorded), so the
   materialized graph is *successor-closed*: reachability inside it
   equals reachability in the full implicit graph for any materialized
   start.
2. **Condense** the materialized graph with Tarjan's algorithm
   (iterative, DFS-numbered).  Tarjan emits strongly connected
   components in reverse topological order, so one linear pass
   computes, per component, the *bitset of reachable components* as a
   Python int: ``label[c] = bit(c) | union(label[successor sccs])``.
3. **Answer** ``decide_ind`` for a compiled source as a bitset
   membership test — two dict lookups and one shift — plus, for an
   implied goal, a witness chain from a resumable per-source BFS over
   the recorded edges.  The walk advances only until the goal has a
   parent, so it never goes past the deepest goal asked of its source
   so far.  Chains, links and the implied answer's ``frontier_peak``
   are identical to the early-exit kernel BFS's (same edge enumeration
   order, same BFS discipline; pinned by the differential property
   tests).

Premise mutations follow an **epoch/dirty policy** instead of PR 2's
per-exploration footprint scan:

* adding or retracting an IND whose *left* relation has never been
  materialized is free — no materialized node is an expression over
  that relation, so no recorded edge appears or disappears (for adds
  this is the cheap monotone extension: future expansions consult the
  live :class:`~repro.core.ind_kernel.KernelIndex` and see the new
  premise naturally);
* any other IND mutation marks the index dirty; the next query bumps
  the epoch and recompiles lazily, so a burst of mutations costs one
  recompile, not one per mutation.

The index also records the kernel index's mutation counter at compile
time and self-invalidates when it drifts, so a
:class:`~repro.core.ind_kernel.KernelIndex` mutated behind the index's
back can never produce a stale verdict.

:class:`~repro.engine.index.PremiseIndex` owns one ReachIndex next to
its FD closure kernels; ``fork``/``whatif`` share the compiled arrays
copy-on-write (:meth:`ReachIndex.copy` copies container skeletons,
never recompiles).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable, Optional

from repro.exceptions import DeadlineExceeded, SearchBudgetExceeded
from repro.deps.ind import IND
from repro.core.ind_decision import (
    ChainLink,
    DecisionResult,
    Expression,
    expression_of_lhs,
    expression_of_rhs,
)
from repro.core.ind_kernel import INDKernel, KernelIndex, intern_expression

Edge = tuple[int, INDKernel, tuple[int, ...]]
"""One recorded successor edge: (target node id, kernel, lhs positions)."""


Parent = tuple[int, Edge, int]
"""One discovered node's BFS parent: (parent node id, the recorded edge
into the node, frontier peak when the node was discovered)."""


class _SourceView:
    """Per-source witness support: a resumable BFS from one source.

    The walk expands the materialized adjacency in the exact order the
    kernel BFS would, so extracted chains match
    :func:`~repro.core.ind_decision.decide_ind` edge for edge.  It
    advances only until the goal asked has a parent (:meth:`advance`),
    so a source's walk never goes past the deepest goal asked of it so
    far.  BFS parents do not depend on where a walk stops, so a resumed
    walk gives every node the parent a full walk would.

    ``parents`` maps each discovered node to its :data:`Parent`, whose
    last field is the frontier peak at the moment the node was found —
    exactly the ``frontier_peak`` the early-exit kernel BFS reports for
    that goal.  The source maps to ``None``.  ``queue`` and ``peak``
    are the walk's BFS queue and running frontier peak; the view is
    *finished* once its queue is empty.
    """

    __slots__ = ("parents", "queue", "peak")

    def __init__(self, source: int):
        self.parents: dict[int, Optional[Parent]] = {source: None}
        self.queue: deque[int] = deque([source])
        self.peak = 1

    def advance(self, edges: list[tuple[Edge, ...]], goal: int) -> int:
        """Walk on until ``goal`` (reachable, not the source) has a
        parent; return the frontier peak at the moment it was found."""
        parents = self.parents
        if goal not in parents:
            queue = self.queue
            peak = self.peak
            while goal not in parents:
                if len(queue) > peak:
                    peak = len(queue)
                node = queue.popleft()
                for edge in edges[node]:
                    succ = edge[0]
                    if succ not in parents:
                        parents[succ] = (node, edge, peak)
                        queue.append(succ)
            self.peak = peak
        return parents[goal][2]

    def copy(self) -> "_SourceView":
        twin = _SourceView.__new__(_SourceView)
        twin.parents = dict(self.parents)
        twin.queue = deque(self.queue)
        twin.peak = self.peak
        return twin


class ReachIndex:
    """Compiled reachability over the interned expression graph."""

    def __init__(self, kernels: KernelIndex):
        self.kernels = kernels
        self.epoch = 0
        self.dirty = False
        self.compiles = 0
        self.compile_seconds = 0.0
        self.extensions = 0
        self.invalidations = 0
        self.queries = 0
        self._synced_mutations = kernels.mutations
        self._clear()

    def _clear(self) -> None:
        self._ids: dict[Expression, int] = {}
        self._exprs: list[Expression] = []
        self._edges: list[tuple[Edge, ...]] = []
        self._footprint: set[str] = set()
        self._scc_of: list[int] = []
        self._labels: list[int] = []
        self._scc_sizes: list[int] = []
        self._counts: dict[int, int] = {}
        self._views: dict[int, _SourceView] = {}

    # -- the mutation protocol --------------------------------------------

    def note_mutation(
        self,
        added_lhs: Iterable[str] = (),
        removed_lhs: Iterable[str] = (),
    ) -> None:
        """Record one premise mutation (left relations of mutated INDs).

        A mutated IND can only add or remove a materialized edge if some
        materialized expression is over its left relation — expressions
        over other relations never consult its kernel.  So mutations
        outside the footprint are free (monotone extension for adds);
        anything else marks the index dirty for a lazy epoch recompile.
        """
        self._synced_mutations = self.kernels.mutations
        footprint = self._footprint
        touched = any(rel in footprint for rel in added_lhs) or any(
            rel in footprint for rel in removed_lhs
        )
        if touched:
            if not self.dirty:
                self.dirty = True
                self.invalidations += 1
        elif added_lhs or removed_lhs:
            self.extensions += 1

    def _reset(self) -> None:
        """Drop the compiled state; the next query recompiles on demand."""
        self._clear()
        self.epoch += 1
        self.dirty = False
        self._synced_mutations = self.kernels.mutations

    def _stale(self) -> bool:
        return self.dirty or self._synced_mutations != self.kernels.mutations

    # -- compilation -------------------------------------------------------

    def _add_node(self, expression: Expression) -> int:
        expression = intern_expression(expression)
        node = len(self._exprs)
        self._ids[expression] = node
        self._exprs.append(expression)
        self._edges.append(())
        self._footprint.add(expression[0])
        return node

    def ensure_source(
        self, start: Expression, max_nodes: int = 2_000_000, tick=None
    ) -> int:
        """Materialize (if needed) everything reachable from ``start``.

        Newly discovered expressions are expanded exhaustively — the
        materialized graph stays successor-closed — and the new
        subgraph is condensed *incrementally* at the end: because no
        old node can reach a new one, the existing components, labels,
        and source views are all still exact and are left untouched.
        Reaching an already materialized node stops the expansion
        there: its edges (and everything beyond them) are already
        recorded.

        Raises :class:`~repro.exceptions.SearchBudgetExceeded` when
        *this call* would materialize more than ``max_nodes`` new
        expressions (the per-question budget contract of
        :func:`~repro.core.ind_decision.decide_ind`).  ``tick`` is an
        optional cooperative check polled every 256 expansions; a
        budget overrun or an expired deadline both roll the partial
        expansion back — previously compiled components survive, and
        no half-expanded node can ever serve an answer.
        """
        if self._stale():
            self._reset()
        node = self._ids.get(start)
        if node is not None:
            return node
        first_new = len(self._exprs)
        compile_start = time.perf_counter()
        try:
            return self._materialize(start, max_nodes, tick)
        except (SearchBudgetExceeded, DeadlineExceeded):
            self._rollback(first_new)
            raise
        finally:
            # Only cold starts reach this point (hot queries returned
            # above), so the timer never runs on the index-hit path.
            self.compile_seconds += time.perf_counter() - compile_start

    def _rollback(self, first_new: int) -> None:
        """Discard nodes appended after ``first_new`` (failed expansion).

        Labels were not recomputed yet (``_condense`` runs only after a
        complete expansion) and old nodes' edge tuples are immutable,
        so truncating the node arrays restores exactly the previous
        compiled state.
        """
        for expression in self._exprs[first_new:]:
            del self._ids[expression]
        del self._exprs[first_new:]
        del self._edges[first_new:]
        self._footprint = {expression[0] for expression in self._exprs}

    def _materialize(self, start: Expression, max_nodes: int, tick=None) -> int:
        first_new = len(self._exprs)
        source = self._add_node(start)
        fresh: deque[int] = deque([source])
        bucket = self.kernels.bucket
        expanded = 0
        while fresh:
            node = fresh.popleft()
            expanded += 1
            if tick is not None and not expanded & 0xFF:
                tick()
            relation, attrs = self._exprs[node]
            edges: list[Edge] = []
            for kernel in bucket(relation):
                entry = kernel.successor_of(attrs)
                if entry is None:
                    continue
                successor, positions = entry
                succ_id = self._ids.get(successor)
                if succ_id is None:
                    if len(self._exprs) - first_new >= max_nodes:
                        raise SearchBudgetExceeded(
                            f"reach index exceeded {max_nodes} expressions",
                            explored=len(self._exprs) - first_new,
                        )
                    succ_id = self._add_node(successor)
                    fresh.append(succ_id)
                edges.append((succ_id, kernel, positions))
            self._edges[node] = tuple(edges)
        self._condense(first_new)
        return source

    def _condense(self, first_new: int) -> None:
        """Incremental Tarjan condensation of the nodes ``>= first_new``.

        The materialized graph is successor-closed, so an *old* node's
        edges were all recorded when it was expanded — none of them can
        point at a node added later.  New nodes therefore can't join an
        existing component, and the old components, their labels, the
        per-component reach counts, and the per-source witness walks
        (which only ever visit nodes their source reaches) are all
        still exact: only the new subgraph needs condensing, with
        edges into old nodes treated as cross-edges to already-final
        components.

        Tarjan runs iteratively (explicit work stack — materialized
        chains are longer than the recursion limit allows), emitting
        components in reverse topological order, which is exactly the
        order in which ``label[c] |= label[successor]`` is well-defined.
        """
        n = len(self._exprs)
        edges = self._edges
        scc_of = self._scc_of
        scc_of.extend([-1] * (n - first_new))
        labels = self._labels
        sizes = self._scc_sizes
        # Local DFS state for the new nodes only, indexed by node-first_new.
        order = [-1] * (n - first_new)
        low = [0] * (n - first_new)
        on_stack = [False] * (n - first_new)
        stack: list[int] = []
        counter = 0
        for root in range(first_new, n):
            if order[root - first_new] != -1:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                node, edge_index = work[-1]
                local = node - first_new
                if edge_index == 0:
                    order[local] = low[local] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[local] = True
                descended = False
                node_edges = edges[node]
                for i in range(edge_index, len(node_edges)):
                    succ = node_edges[i][0]
                    if succ < first_new:
                        continue  # cross-edge into a finalized component
                    succ_local = succ - first_new
                    if order[succ_local] == -1:
                        work[-1] = (node, i + 1)
                        work.append((succ, 0))
                        descended = True
                        break
                    if on_stack[succ_local] and order[succ_local] < low[local]:
                        low[local] = order[succ_local]
                if descended:
                    continue
                work.pop()
                if work:
                    parent_local = work[-1][0] - first_new
                    if low[local] < low[parent_local]:
                        low[parent_local] = low[local]
                if low[local] == order[local]:
                    cid = len(labels)
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member - first_new] = False
                        scc_of[member] = cid
                        component.append(member)
                        if member == node:
                            break
                    # Emission order is reverse-topological within the
                    # new subgraph, and cross-edges point at old
                    # components whose labels are final — so every
                    # successor label below is already complete.
                    label = 1 << cid
                    for member in component:
                        for succ, _kernel, _positions in edges[member]:
                            succ_cid = scc_of[succ]
                            if succ_cid != cid:
                                label |= labels[succ_cid]
                    labels.append(label)
                    sizes.append(len(component))
        self.compiles += 1

    # -- queries -----------------------------------------------------------

    def is_hot(self, start: Expression) -> bool:
        """Whether a decision from ``start`` is a pure index hit (no
        materialization, no recompile)."""
        return not self._stale() and start in self._ids

    def reachable(
        self, start: Expression, goal: Expression, max_nodes: int = 2_000_000,
        tick=None,
    ) -> bool:
        """O(1) reachability after compiling ``start``'s component."""
        source = self.ensure_source(start, max_nodes, tick)
        goal_id = self._ids.get(goal)
        if goal_id is None:
            return False
        return bool(
            (self._labels[self._scc_of[source]] >> self._scc_of[goal_id]) & 1
        )

    def decide(
        self, target: IND, max_nodes: int = 2_000_000, tick=None
    ) -> DecisionResult:
        """The Corollary 3.2 decision, served from the compiled index.

        Same contract as :func:`~repro.core.ind_decision.decide_ind`;
        ``explored`` reports the size of the source's reachable set
        (what the exhaustive exploration would have visited), and
        implied targets carry the identical witness chain the kernel
        BFS would extract.  An implied answer advances the source's
        resumable witness walk (:class:`_SourceView`) only until the
        goal has a parent, and reports the ``frontier_peak`` that walk
        had reached when it found the goal — the early-exit kernel
        BFS's, equal to :func:`~repro.core.ind_decision.decide_ind`'s.
        ``frontier_peak`` is 0 for negative answers: the index runs no
        frontier for them.
        """
        if self._stale():
            self._reset()
        self.queries += 1
        start = intern_expression(expression_of_lhs(target))
        goal = intern_expression(expression_of_rhs(target))
        if start == goal:
            return DecisionResult(
                implied=True, target=target, chain=[start], links=[],
                explored=1, frontier_peak=1,
            )
        source = self.ensure_source(start, max_nodes, tick)
        goal_id = self._ids.get(goal)
        if goal_id is None or not (
            (self._labels[self._scc_of[source]] >> self._scc_of[goal_id]) & 1
        ):
            return DecisionResult(
                implied=False, target=target,
                explored=self._reach_count(source), frontier_peak=0,
            )
        view = self._views.get(source)
        if view is None:
            view = self._views[source] = _SourceView(source)
        frontier_peak = view.advance(self._edges, goal_id)
        chain, links = self._chain(view, source, goal_id)
        return DecisionResult(
            implied=True, target=target, chain=chain, links=links,
            explored=self._reach_count(source), frontier_peak=frontier_peak,
        )

    def _reach_count(self, source: int) -> int:
        """Number of expressions reachable from ``source`` (memoized per
        component: popcount-weighted sum of reachable component sizes)."""
        cid = self._scc_of[source]
        count = self._counts.get(cid)
        if count is None:
            label = self._labels[cid]
            sizes = self._scc_sizes
            count = 0
            while label:
                lowest = label & -label
                count += sizes[lowest.bit_length() - 1]
                label ^= lowest
            self._counts[cid] = count
        return count

    def _chain(
        self, view: _SourceView, source: int, goal: int
    ) -> tuple[list[Expression], list[ChainLink]]:
        """Walk the source's parent map back from ``goal`` — the same
        extraction :func:`~repro.core.ind_decision._extract_chain`
        performs on a live BFS, materializing one
        :class:`~repro.core.ind_decision.ChainLink` per witness edge."""
        exprs = self._exprs
        chain = [exprs[goal]]
        links: list[ChainLink] = []
        node = goal
        while node != source:
            previous, (_node, kernel, positions), _peak = view.parents[node]
            chain.append(exprs[previous])
            links.append(ChainLink(kernel.ind, positions))
            node = previous
        chain.reverse()
        links.reverse()
        return chain, links

    # -- sharing and introspection ----------------------------------------

    def copy(self, kernels: Optional[KernelIndex] = None) -> "ReachIndex":
        """A copy-on-write twin over ``kernels`` (for session forking).

        Container skeletons are copied; node tuples, edge tuples,
        labels (ints) and finished source views (empty queue) are
        shared — compilation only ever appends new nodes or replaces
        whole containers, and a finished walk never moves again, so
        shared values are never mutated in place.  An unfinished view
        is the one thing that does move: the twin gets its own copy of
        its parent map and queue, so the twin (``whatif`` re-queries a
        fork on another thread) and this index never advance one walk
        together.  Nothing is recompiled.
        """
        twin = ReachIndex.__new__(ReachIndex)
        twin.kernels = kernels if kernels is not None else self.kernels
        twin.epoch = self.epoch
        twin.dirty = self.dirty
        twin.compiles = self.compiles
        twin.compile_seconds = self.compile_seconds
        twin.extensions = self.extensions
        twin.invalidations = self.invalidations
        twin.queries = self.queries
        # Inherit the compile-time counter, not the live one: if the
        # parent's kernels drifted unreported, the twin (whose cloned
        # kernels copy the drifted count) must also see the mismatch
        # and self-invalidate rather than serve the stale closure.
        twin._synced_mutations = self._synced_mutations
        twin._ids = dict(self._ids)
        twin._exprs = list(self._exprs)
        twin._edges = list(self._edges)
        twin._footprint = set(self._footprint)
        twin._scc_of = list(self._scc_of)
        twin._labels = list(self._labels)
        twin._scc_sizes = list(self._scc_sizes)
        twin._counts = dict(self._counts)
        twin._views = {
            source: view.copy() if view.queue else view
            for source, view in self._views.items()
        }
        return twin

    @property
    def label_bits(self) -> int:
        """Total set bits across all component labels (index density)."""
        return sum(label.bit_count() for label in self._labels)

    def stats(self) -> dict[str, int | float]:
        return {
            "nodes": len(self._exprs),
            "sccs": len(self._labels),
            "label_bits": self.label_bits,
            "epoch": self.epoch,
            "compiles": self.compiles,
            "compile_seconds": self.compile_seconds,
            "extensions": self.extensions,
            "invalidations": self.invalidations,
            "dirty": int(self._stale()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReachIndex({len(self._exprs)} nodes, {len(self._labels)} sccs, "
            f"epoch {self.epoch}{', dirty' if self._stale() else ''})"
        )
