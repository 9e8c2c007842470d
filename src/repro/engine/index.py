"""Premise indexing for :class:`~repro.engine.session.ReasoningSession`.

A session classifies and buckets its dependency set at construction
and then maintains the buckets *incrementally* through the premise
lifecycle (:meth:`PremiseIndex.add` / :meth:`PremiseIndex.retract`):

* INDs compiled into kernels bucketed by left-hand relation (the
  :class:`~repro.core.ind_kernel.KernelIndex` the Corollary 3.2
  search walks), with the compiled
  :class:`~repro.core.reach_index.ReachIndex` on top — the
  SCC-condensed bitset closure the session's hot IND path queries —
  maintained through an epoch/dirty policy (mutations outside the
  materialized footprint are free; others recompile lazily);
* FDs bucketed by relation, with a compiled closure kernel per
  relation and memoized attribute closures and candidate keys — all
  invalidated per affected relation only, never wholesale;
* the premises compiled into one
  :class:`~repro.core.fdind_chase.ChaseEngine` (validated rules with
  their column positions), built on the first chase-routed question
  and dropped by any mutation; each question runs only the rules its
  start relation reaches (:meth:`ChaseEngine.implies
  <repro.core.fdind_chase.ChaseEngine.implies>`);
* the structural facts routing needs (which classes are present,
  whether everything is unary) maintained as counters and per-class
  lists, with the flat tuple views (what the unary engine and
  ``prove`` consume) materialized lazily per class — a mutation
  that only touches INDs never rebuilds the FD view, and the
  Corollary 3.2 query path never rebuilds any of them.

Each mutation returns a :class:`MutationDelta` describing exactly
which relation buckets changed, which is what the session's scoped
cache invalidation consumes.

``PremiseIndex.builds_total`` counts constructions process-wide so
tests can assert that a batch of N queries indexes the premises
exactly once; :meth:`clone` (copy-on-write forking) does not count as
a build because it copies buckets instead of rebuilding them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional

from repro.exceptions import DependencyError
from repro.deps.base import Dependency
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.rd import RD
from repro.model.schema import DatabaseSchema
from repro.core.fd_closure import FDClosureKernel, candidate_keys
from repro.core.fdind_chase import ChaseEngine
from repro.core.ind_kernel import KernelIndex
from repro.core.reach_index import ReachIndex


def premise_hash_of(
    schema: DatabaseSchema, premises: Iterable[Dependency]
) -> str:
    """The structural hash :attr:`PremiseIndex.premise_hash` memoizes.

    A function of (schema, premises) alone, so a serving checkpoint can
    hash a frozen premise tuple off the event loop without touching the
    live index.
    """
    digest = hashlib.sha256()
    for rel in sorted(schema, key=lambda r: r.name):
        digest.update(f"{rel.name}({','.join(rel.attributes)})".encode())
    digest.update(b"|")
    for line in sorted(str(dep) for dep in premises):
        digest.update(line.encode())
        digest.update(b";")
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class MutationDelta:
    """What one :meth:`PremiseIndex.add` / ``retract`` call changed.

    ``ind_lhs_relations`` are the left-hand relations of every mutated
    IND (the buckets the Corollary 3.2 search reads); ``fd_relations``
    are the relations of every mutated FD.  The session's scoped cache
    invalidation is driven entirely by these two sets.
    """

    added: tuple[Dependency, ...] = ()
    removed: tuple[Dependency, ...] = ()
    ind_lhs_relations: frozenset[str] = frozenset()
    fd_relations: frozenset[str] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


def _class_of(dep: Dependency) -> str:
    if isinstance(dep, IND):
        return "ind"
    if isinstance(dep, FD):
        return "fd"
    if isinstance(dep, RD):
        return "rd"
    return "other"


class PremiseIndex:
    """A dependency set, pre-bucketed for engine dispatch and search."""

    builds_total: ClassVar[int] = 0
    """Process-wide construction counter (for amortization tests)."""

    def __init__(
        self,
        schema: DatabaseSchema,
        dependencies: Iterable[Dependency] = (),
    ):
        PremiseIndex.builds_total += 1
        self.schema = schema
        self._deps: list[Dependency] = list(dependencies)
        for dep in self._deps:
            dep.validate(schema)

        self._counts: dict[str, int] = {"ind": 0, "fd": 0, "rd": 0, "other": 0}
        self._views: dict[str, tuple] = {}  # lazily rebuilt per class
        self._deps_view: Optional[tuple[Dependency, ...]] = None
        self._non_unary = 0
        self.fds_by_relation: dict[str, tuple[FD, ...]] = {}
        self.ind_kernels = KernelIndex()
        for dep in self._deps:
            self._classify_insert(dep)
        self.reach_index = ReachIndex(self.ind_kernels)

        self._fd_kernels: dict[str, FDClosureKernel] = {}
        self._closure_cache: dict[tuple[str, frozenset[str]], frozenset[str]] = {}
        self._keys_cache: dict[str, list[frozenset[str]]] = {}
        self.closure_hits = 0
        self.closure_misses = 0
        self._hash_memo: Optional[str] = None
        self._chase: Optional[ChaseEngine] = None

    # -- bucket maintenance ------------------------------------------------

    def _classify_insert(self, dep: Dependency) -> None:
        kind = _class_of(dep)
        self._counts[kind] += 1
        self._views.pop(kind, None)
        self._deps_view = None
        if isinstance(dep, IND):
            self.ind_kernels.add(dep)
            self._non_unary += not dep.is_unary()
        elif isinstance(dep, FD):
            self.fds_by_relation[dep.relation] = (
                self.fds_by_relation.get(dep.relation, ()) + (dep,)
            )
            self._non_unary += not dep.is_unary()

    def _classify_remove(self, dep: Dependency) -> None:
        kind = _class_of(dep)
        self._counts[kind] -= 1
        self._views.pop(kind, None)
        self._deps_view = None
        if isinstance(dep, IND):
            self.ind_kernels.discard(dep)
            self._non_unary -= not dep.is_unary()
        elif isinstance(dep, FD):
            self._bucket_remove(self.fds_by_relation, dep.relation, dep)
            self._non_unary -= not dep.is_unary()

    @staticmethod
    def _bucket_remove(
        buckets: dict[str, tuple], key: str, dep: Dependency
    ) -> None:
        bucket = list(buckets.get(key, ()))
        bucket.remove(dep)
        if bucket:
            buckets[key] = tuple(bucket)
        else:
            del buckets[key]

    def _view(self, kind: str) -> tuple:
        view = self._views.get(kind)
        if view is None:
            view = tuple(
                dep for dep in self._deps if _class_of(dep) == kind
            )
            self._views[kind] = view
        return view

    # -- flat views (lazy, per class) --------------------------------------

    @property
    def dependencies(self) -> tuple[Dependency, ...]:
        if self._deps_view is None:
            self._deps_view = tuple(self._deps)
        return self._deps_view

    @property
    def inds(self) -> tuple[IND, ...]:
        return self._view("ind")

    @property
    def fds(self) -> tuple[FD, ...]:
        return self._view("fd")

    @property
    def rds(self) -> tuple[RD, ...]:
        return self._view("rd")

    @property
    def others(self) -> tuple[Dependency, ...]:
        return self._view("other")

    @property
    def all_unary(self) -> bool:
        """Whether every FD and IND premise is unary (counter-maintained)."""
        return self._non_unary == 0

    # -- the premise lifecycle ---------------------------------------------

    def add(self, dependencies: Iterable[Dependency]) -> MutationDelta:
        """Insert premises in place, updating buckets incrementally.

        The premises must already be validated against the schema (the
        session validates each one while coercing it).  Returns the
        :class:`MutationDelta` naming the touched buckets.  Affected
        memoized closures and candidate keys are dropped here (per
        relation); reachability/unary caches live in the session, which
        scopes its own invalidation from the returned delta.
        """
        added = tuple(dependencies)
        for dep in added:
            self._deps.append(dep)
            self._classify_insert(dep)
        delta = self._delta(added=added, removed=())
        if delta:
            self._hash_memo = None
            self._chase = None
        self._apply_fd_invalidation(delta)
        self._apply_reach_policy(delta)
        return delta

    def retract(self, dependencies: Iterable[Dependency]) -> MutationDelta:
        """Remove premises in place (one occurrence each).

        Raises :class:`~repro.exceptions.DependencyError` when a
        dependency is not among the premises — retracting something
        that was never asserted is a caller bug worth surfacing — and
        the whole batch is checked before anything is removed, so a
        failed retract leaves the index unchanged.
        """
        removed = tuple(dependencies)
        # One scan per dependency to locate its position; the whole
        # batch is resolved before anything is mutated, so a failed
        # retract leaves the index unchanged.
        taken: set[int] = set()
        for dep in removed:
            position = -1
            for i, existing in enumerate(self._deps):
                if i not in taken and existing == dep:
                    position = i
                    break
            if position < 0:
                raise DependencyError(
                    f"cannot retract {dep}: not among the premises"
                )
            taken.add(position)
        for position in sorted(taken, reverse=True):
            dep = self._deps.pop(position)
            self._classify_remove(dep)
        delta = self._delta(added=(), removed=removed)
        if delta:
            self._hash_memo = None
            self._chase = None
        self._apply_fd_invalidation(delta)
        self._apply_reach_policy(delta)
        return delta

    @staticmethod
    def _delta(
        added: tuple[Dependency, ...], removed: tuple[Dependency, ...]
    ) -> MutationDelta:
        ind_lhs: set[str] = set()
        fd_rels: set[str] = set()
        for dep in added + removed:
            if isinstance(dep, IND):
                ind_lhs.add(dep.lhs_relation)
            elif isinstance(dep, FD):
                fd_rels.add(dep.relation)
        return MutationDelta(
            added=added,
            removed=removed,
            ind_lhs_relations=frozenset(ind_lhs),
            fd_relations=frozenset(fd_rels),
        )

    def _apply_fd_invalidation(self, delta: MutationDelta) -> None:
        """Drop only the mutated relations' closure/key memos and
        compiled closure kernels."""
        for relation in delta.fd_relations:
            self._keys_cache.pop(relation, None)
            self._fd_kernels.pop(relation, None)
        if delta.fd_relations and self._closure_cache:
            for key in [
                k for k in self._closure_cache if k[0] in delta.fd_relations
            ]:
                del self._closure_cache[key]

    def _apply_reach_policy(self, delta: MutationDelta) -> None:
        """Feed one mutation to the reach index's epoch/dirty policy.

        The index decides for itself whether the mutation is a free
        monotone extension (every mutated IND's left relation is
        outside the materialized footprint) or marks it dirty for a
        lazy recompile on the next query.
        """
        self.reach_index.note_mutation(
            added_lhs=[
                dep.lhs_relation for dep in delta.added if isinstance(dep, IND)
            ],
            removed_lhs=[
                dep.lhs_relation for dep in delta.removed if isinstance(dep, IND)
            ],
        )

    def clone(self) -> "PremiseIndex":
        """A copy-on-write twin for :meth:`ReasoningSession.fork`.

        Bucket *dicts* are copied; the bucket tuples, memoized closures
        and key lists are shared (mutations replace whole tuples and
        evict whole entries, so sharing is safe).  Does not count as a
        build — nothing is re-validated or re-bucketed.
        """
        twin = PremiseIndex.__new__(PremiseIndex)
        twin.schema = self.schema
        twin._deps = list(self._deps)
        twin._counts = dict(self._counts)
        twin._views = dict(self._views)
        twin._deps_view = self._deps_view
        twin._non_unary = self._non_unary
        twin.fds_by_relation = dict(self.fds_by_relation)
        twin.ind_kernels = self.ind_kernels.copy()
        twin.reach_index = self.reach_index.copy(twin.ind_kernels)
        twin._fd_kernels = dict(self._fd_kernels)
        twin._closure_cache = dict(self._closure_cache)
        twin._keys_cache = dict(self._keys_cache)
        twin.closure_hits = 0
        twin.closure_misses = 0
        twin._hash_memo = self._hash_memo
        twin._chase = self._chase
        return twin

    # -- structural identity and compiled-artifact sharing -----------------

    @property
    def premise_hash(self) -> str:
        """Structural hash of (schema, premise multiset), order-independent.

        Two indexes hash identically exactly when they hold the same
        relation schemes (names, attribute sequences) and the same
        multiset of premises — regardless of insertion order — which is
        when every compiled artifact (IND kernels, reach index, FD
        closure kernels, memoized closures and keys) computed by one is
        valid for the other.  The compiled chase engine is the one
        exception: it fires rules in premise order, so it also needs
        the order to match (see :meth:`adopt_compiled`).  That makes
        the hash the sharing key of the serving layer's structural LRU
        and the natural invalidation key for any persisted artifact.
        Memoized; any mutation drops the memo.
        """
        memo = self._hash_memo
        if memo is None:
            memo = self._hash_memo = premise_hash_of(self.schema, self._deps)
        return memo

    def adopt_compiled(self, donor: "PremiseIndex") -> None:
        """Share a structurally identical index's compiled artifacts.

        Replaces this index's IND kernels, reach index, FD closure
        kernels, and closure/key memos with copy-on-write twins of the
        donor's, and takes the donor's compiled chase engine when the
        premises are in the same order — the sharing :meth:`clone`
        performs, but grafted onto an independently constructed
        index.  N tenants with equal premise sets thus pay one
        compilation; afterwards the two indexes evolve independently
        (mutations replace buckets and containers, never shared
        values).

        Raises :class:`ValueError` unless the structural hashes match —
        adopting foreign artifacts would serve wrong verdicts.
        """
        if donor is self:
            return
        if donor.premise_hash != self.premise_hash:
            raise ValueError(
                f"cannot adopt compiled artifacts across structurally "
                f"different premise sets ({donor.premise_hash} != "
                f"{self.premise_hash})"
            )
        self.ind_kernels = donor.ind_kernels.copy()
        self.reach_index = donor.reach_index.copy(self.ind_kernels)
        self._fd_kernels = dict(donor._fd_kernels)
        self._closure_cache = dict(donor._closure_cache)
        self._keys_cache = dict(donor._keys_cache)
        # The chase fires rules in premise order, and rule order can
        # move its rounds, events and budget exits: share the engine
        # only when the order matches too, not just the multiset.
        if donor._deps == self._deps:
            self._chase = donor._chase

    # -- structural profile ----------------------------------------------

    @property
    def pure_ind(self) -> bool:
        """Only IND premises (the Corollary 3.2 fragment)."""
        counts = self._counts
        return not (counts["fd"] or counts["rd"] or counts["other"])

    @property
    def pure_fd(self) -> bool:
        """Only FD premises (the attribute-closure fragment)."""
        counts = self._counts
        return not (counts["ind"] or counts["rd"] or counts["other"])

    def fds_of(self, relation: str) -> tuple[FD, ...]:
        return self.fds_by_relation.get(relation, ())

    # -- memoized FD reasoning ---------------------------------------------

    def fd_kernel(self, relation: str) -> FDClosureKernel:
        """The relation's FDs compiled for linear-time closure.

        Compiled lazily, once per relation, and evicted exactly when
        that relation's FDs mutate — every closure, implication, and
        candidate-key query in between reuses the compilation.
        """
        kernel = self._fd_kernels.get(relation)
        if kernel is None:
            kernel = FDClosureKernel(self.fds_of(relation))
            self._fd_kernels[relation] = kernel
        return kernel

    def closure(self, relation: str, attrs: Iterable[str]) -> frozenset[str]:
        """Memoized attribute closure ``X+`` over this index's FDs."""
        key = (relation, frozenset(attrs))
        cached = self._closure_cache.get(key)
        if cached is None:
            self.closure_misses += 1
            cached = self.fd_kernel(relation).closure(key[1])
            self._closure_cache[key] = cached
        else:
            self.closure_hits += 1
        return cached

    def fd_implied(self, fd: FD) -> bool:
        """Closure-based FD implication using the memo."""
        return fd.rhs_set <= self.closure(fd.relation, fd.lhs_set)

    def keys_of(self, relation: str) -> list[frozenset[str]]:
        """Memoized candidate keys of ``relation`` under this index's FDs.

        Candidate-key search is exponential in the worst case, so the
        memo matters for any session that asks repeatedly; the
        FD-mutation path evicts exactly this relation's entry.
        """
        cached = self._keys_cache.get(relation)
        if cached is None:
            cached = candidate_keys(
                self.schema.relation(relation),
                self.fds_of(relation),
                kernel=self.fd_kernel(relation),
            )
            self._keys_cache[relation] = cached
        return list(cached)

    # -- the compiled chase -----------------------------------------------

    def chase_engine(self) -> ChaseEngine:
        """The premises compiled into one :class:`ChaseEngine`.

        Built lazily on the first chase-routed question and dropped by
        any mutation; every question in between reuses it (each one
        runs only the rules its start relation reaches, see
        :meth:`ChaseEngine.implies`).  The engine keeps no per-run
        state, so clones and adopters share it.
        """
        engine = self._chase
        if engine is None:
            engine = ChaseEngine(self.schema, self.dependencies)
            self._chase = engine
        return engine

    @property
    def closure_cache_size(self) -> int:
        return len(self._closure_cache)

    @property
    def keys_cache_size(self) -> int:
        return len(self._keys_cache)

    def stats(self) -> dict[str, int]:
        """Headline sizes, reported in :class:`Answer` stats.

        The ``reach_*`` keys surface the reach index's compiled state:
        ``reach_compiles`` counts label recompilations (a hot query
        stream holds this constant), ``reach_epoch`` counts
        invalidation generations, ``reach_label_bits`` is the total
        density of the SCC closure bitsets.
        """
        reach = self.reach_index.stats()
        return {
            "inds": self._counts["ind"],
            "fds": self._counts["fd"],
            "rds": self._counts["rd"],
            "relations_with_outgoing_inds": len(self.ind_kernels.buckets),
            "closures_memoized": len(self._closure_cache),
            "closure_hits": self.closure_hits,
            "closure_misses": self.closure_misses,
            "keys_memoized": len(self._keys_cache),
            "fd_kernels_compiled": len(self._fd_kernels),
            **{f"reach_{key}": value for key, value in reach.items()},
        }
