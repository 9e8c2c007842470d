"""Compiled premise kernels for the Corollary 3.2 expression-graph BFS.

The decision procedure's inner loop asks, for every expanded
expression ``S[X]`` and every premise with left relation ``S``,
*where does each attribute of X sit in the premise's left side?* —
the textbook formulation answers with ``lhs.index(attr)`` scans at
every node expansion.  An :class:`INDKernel` is the premise compiled
once into the two lookup structures the loop actually needs:

* ``lhs_positions`` — attribute -> zero-based left-side position;
* ``rhs_attributes`` — left-side position -> right-side attribute.

Kernels are memoized on the :class:`~repro.deps.ind.IND` itself (the
``_kernel_memo`` slot), so one premise is compiled exactly once per
process no matter how many searches, sessions, or premise indexes
consult it; relation names and attributes are interned so the
expression tuples the BFS hashes compare element-wise by pointer.

On top of the per-attribute maps each kernel memoizes whole *edges*:
:meth:`INDKernel.successor_of` maps an attribute sequence directly to
the successor expression (or ``None`` when the premise does not
apply).  The memo is keyed by the expression's attribute tuple, so a
(node, premise) pair is evaluated once ever — subsequent BFS
revisits, later queries, and forked sessions all reuse the entry.

:class:`KernelIndex` buckets kernels by left-hand relation — the
compiled analogue of :func:`~repro.core.ind_decision.index_by_lhs` —
and is what :class:`~repro.engine.index.PremiseIndex` owns and
maintains incrementally through the premise lifecycle.
"""

from __future__ import annotations

from sys import intern
from typing import Iterable, Optional

from repro.deps.ind import IND

Expression = tuple[str, tuple[str, ...]]

_MISS = object()
"""Cache sentinel distinguishing "not applicable" from "not computed"."""


class INDKernel:
    """One premise, compiled for the successor computation."""

    __slots__ = ("ind", "rhs_relation", "lhs_positions", "rhs_attributes",
                 "_succ_cache")

    def __init__(self, ind: IND):
        self.ind = ind
        self.rhs_relation = intern(ind.rhs_relation)
        self.lhs_positions = {
            intern(attr): pos for pos, attr in enumerate(ind.lhs_attributes)
        }
        self.rhs_attributes = tuple(intern(a) for a in ind.rhs_attributes)
        self._succ_cache: dict[tuple[str, ...], object] = {}

    def successor_of(
        self, attrs: tuple[str, ...]
    ) -> Optional[tuple[Expression, tuple[int, ...]]]:
        """The IND2 move for an expression with these attributes.

        Returns ``(successor expression, selected lhs positions)``, or
        ``None`` when some attribute is outside the premise's left
        side.  Memoized per attribute tuple.
        """
        entry = self._succ_cache.get(attrs, _MISS)
        if entry is _MISS:
            lhs_positions = self.lhs_positions
            positions: list[int] = []
            for attr in attrs:
                pos = lhs_positions.get(attr)
                if pos is None:
                    entry = None
                    break
                positions.append(pos)
            else:
                rhs = self.rhs_attributes
                image = tuple(rhs[p] for p in positions)
                entry = ((self.rhs_relation, image), tuple(positions))
            self._succ_cache[attrs] = entry
        return entry  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"INDKernel({self.ind!r})"


def compile_ind(ind: IND) -> INDKernel:
    """The memoized compiled form of one premise.

    The kernel is cached on the IND object (``_kernel_memo``), so the
    compilation cost — and the edge memo it accumulates — is shared by
    every search that ever touches this premise.
    """
    kernel = getattr(ind, "_kernel_memo", None)
    if kernel is None:
        kernel = INDKernel(ind)
        ind._kernel_memo = kernel
    return kernel


def intern_expression(expression: Expression) -> Expression:
    """An equal expression whose strings are interned.

    Start expressions arrive from targets (parsed text, user-built
    INDs) whose strings are not necessarily interned; interning them
    makes every hash-table comparison against BFS-produced expressions
    an identity check per element.
    """
    relation, attrs = expression
    return (intern(relation), tuple(intern(a) for a in attrs))


class KernelIndex:
    """Kernels bucketed by left-hand relation, maintained incrementally.

    The premise index's IND buckets, compiled: ``bucket(R)`` is the
    tuple of kernels whose premise can move an expression over ``R``.
    Mutations replace whole bucket tuples, so :meth:`copy` (dict copy)
    gives a safely shareable twin for session forking.

    ``mutations`` counts every bucket change.  The
    :class:`~repro.core.reach_index.ReachIndex` compiled on top of
    this index records the counter at compile time and
    self-invalidates on drift, so a kernel index mutated outside the
    ``PremiseIndex`` lifecycle can never serve a stale closure.
    """

    __slots__ = ("buckets", "mutations")

    def __init__(self, premises: Iterable[IND] = ()):
        self.buckets: dict[str, tuple[INDKernel, ...]] = {}
        self.mutations = 0
        for ind in premises:
            self.add(ind)

    def bucket(self, relation: str) -> tuple[INDKernel, ...]:
        return self.buckets.get(relation, ())

    def add(self, ind: IND) -> None:
        name = intern(ind.lhs_relation)
        self.buckets[name] = self.buckets.get(name, ()) + (compile_ind(ind),)
        self.mutations += 1

    def discard(self, ind: IND) -> None:
        """Remove one kernel whose premise equals ``ind`` (if any)."""
        name = ind.lhs_relation
        bucket = self.buckets.get(name)
        if bucket is None:
            return
        for i, kernel in enumerate(bucket):
            if kernel.ind == ind:
                remaining = bucket[:i] + bucket[i + 1:]
                if remaining:
                    self.buckets[name] = remaining
                else:
                    del self.buckets[name]
                self.mutations += 1
                return

    def copy(self) -> "KernelIndex":
        twin = KernelIndex.__new__(KernelIndex)
        twin.buckets = dict(self.buckets)
        twin.mutations = self.mutations
        return twin

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.buckets.values())
