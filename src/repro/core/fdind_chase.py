"""The general chase for FDs and INDs taken together.

FDs are equality-generating rules, INDs are tuple-generating rules
(with fresh labeled nulls), RDs are within-tuple equality rules.  The
chase is the classical semi-decision procedure for *unrestricted*
implication:

* if the goal is derived at any finite stage, the premises imply the
  target (each chase step is a logical consequence);
* if the chase reaches a fixpoint without deriving the goal, the
  chased instance is a counterexample, so the target is **not**
  implied;
* the chase may diverge — implication for FDs + INDs together is
  undecidable (Mitchell; Chandra & Vardi, cited in the paper's
  introduction), so a step budget turns divergence into an explicit
  :class:`~repro.exceptions.ChaseBudgetExceeded`.

The engine keeps an event log (tuple additions with the responsible
IND, value merges with the responsible FD) so that derivations like
the equality chain of Lemma 7.2 can be replayed and inspected.

Two evaluation strategies share the rule semantics:

* ``"semi-naive"`` (the default) is delta-driven: every rule keeps a
  cursor into an append-only per-relation journal of added/rewritten
  rows, FD group tables and IND projection-counts (one per distinct
  IND right side) persist across rounds, and a value merge repairs the
  affected rows and indexes in place (``rows_by_value`` reverse index)
  instead of re-canonicalizing every stored tuple through
  :meth:`ChaseInstance.normalize`.  A round in which nothing changed
  scans nothing — O(deltas), not O(rows).
* ``"naive"`` is the textbook re-scan-everything formulation, retained
  as the differential-testing and benchmarking reference.

Both strategies fire the same logical rule instances in the same round
structure, so they decide identically and chase to isomorphic
fixpoints (asserted over random instances by the property suite).

A :class:`ChaseEngine` is compiled once per premise set (validated
rules and their column projections) and keeps no per-run state, so it
answers any number of implication questions
(:meth:`ChaseEngine.implies`), each running only the rules reachable
from the relation its start tuples are seeded in
(:meth:`ChaseEngine.reaching`).  :func:`chase_implies` is the
one-question form.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.exceptions import (
    ChaseBudgetExceeded,
    DependencyError,
    UnsupportedDependencyError,
)
from repro.deps.base import Dependency
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.rd import RD
from repro.model.database import Database
from repro.model.relation import Relation
from repro.model.schema import DatabaseSchema


@dataclass(frozen=True)
class MergeEvent:
    """Two values were equated by an equality-generating dependency."""

    dependency: Dependency
    kept: int
    merged: int


@dataclass(frozen=True)
class AddEvent:
    """A tuple was added to ``relation`` by the IND ``dependency``."""

    dependency: IND
    relation: str
    row: tuple[int, ...]


class ChaseInstance:
    """A mutable instance over labeled values with a union-find core.

    Values are integer ids, dense from 0, so the union-find parents and
    the constant flags are lists indexed by id.  Ids registered as
    *constants* refuse to be merged with other constants (that would
    make the instance inconsistent); nulls merge freely.

    Names are rendered on demand: only a value created with a name
    stores it, and an unnamed null reads as ``n<id>``
    (:meth:`name_of`).  The chase creates most of its nulls unnamed,
    and only :meth:`to_database` and error messages ever read a name.
    """

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema
        self.relations: dict[str, set[tuple[int, ...]]] = {
            rel.name: set() for rel in schema
        }
        self._parent: list[int] = []
        self._is_constant: list[bool] = []
        self._names: dict[int, str] = {}
        self.events: list[MergeEvent | AddEvent] = []

    # -- value management ------------------------------------------------

    def fresh_null(self, name: str | None = None) -> int:
        value = len(self._parent)
        self._parent.append(value)
        self._is_constant.append(False)
        if name:
            self._names[value] = name
        return value

    def _fresh_nulls(self, count: int) -> list[int]:
        """``count`` unnamed nulls in one step (an IND's new row)."""
        first = len(self._parent)
        ids = range(first, first + count)
        self._parent.extend(ids)
        self._is_constant.extend([False] * count)
        return list(ids)

    def fresh_constant(self, name: str | None = None) -> int:
        value = self.fresh_null(name or f"c{len(self._parent)}")
        self._is_constant[value] = True
        return value

    def find(self, value: int) -> int:
        parent = self._parent
        root = value
        while parent[root] != root:
            root = parent[root]
        while parent[value] != root:  # path compression
            parent[value], value = root, parent[value]
        return root

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def name_of(self, value: int) -> str:
        root = self.find(value)
        name = self._names.get(root)
        return f"n{root}" if name is None else name

    def merge(self, a: int, b: int, dependency: Dependency) -> bool:
        """Equate two values; returns ``True`` when something changed.

        Raises :class:`DependencyError` when two distinct constants
        would be identified (the chase *fails*; cannot happen when all
        initial values are nulls, the implication-testing setup).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        const_a, const_b = self._is_constant[ra], self._is_constant[rb]
        if const_a and const_b:
            raise DependencyError(
                f"chase failure: constants {self.name_of(ra)} and "
                f"{self.name_of(rb)} forced equal by {dependency}"
            )
        # Keep the constant (or the older id) as representative.
        if const_b or (not const_a and rb < ra):
            ra, rb = rb, ra
        self._parent[rb] = ra
        self.events.append(MergeEvent(dependency, kept=ra, merged=rb))
        return True

    # -- tuple management --------------------------------------------------

    def canonical_row(self, row: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(self.find, row))

    def normalize(self) -> None:
        """Rewrite all stored tuples through the union-find."""
        for name, rows in self.relations.items():
            self.relations[name] = {self.canonical_row(row) for row in rows}

    def add_row(self, relation: str, row: Sequence[int],
                dependency: IND | None = None) -> bool:
        canonical = self.canonical_row(row)
        if canonical in self.relations[relation]:
            return False
        self.relations[relation].add(canonical)
        if dependency is not None:
            self.events.append(AddEvent(dependency, relation, canonical))
        return True

    def total_tuples(self) -> int:
        return sum(len(rows) for rows in self.relations.values())

    # -- export ------------------------------------------------------------

    def to_database(self) -> Database:
        """Freeze into a :class:`Database` with readable value names."""
        self.normalize()
        relations = {
            name: Relation(
                self.schema.relation(name),
                [tuple(self.name_of(v) for v in row) for row in rows],
            )
            for name, rows in self.relations.items()
        }
        return Database(self.schema, relations)


class _SemiNaiveState:
    """Delta-evaluation state for one semi-naive run over one instance.

    Maintains, across rounds:

    * ``logs`` — an append-only journal per relation of every row
      added or rewritten (canonical at append time); every rule holds
      a cursor into the journal of the relation it reads, so a rule
      application only examines rows it has never seen in their
      current form;
    * ``fd_groups`` — per-FD lhs-values -> rhs-values tables that
      persist across rounds (the naive engine rebuilds them from all
      rows on every invocation).  Entries whose values are merged away
      become unreachable garbage; correctness is preserved because
      lookups key on canonical values and every comparison goes
      through the union-find;
    * ``ind_existing`` — per-IND counted multiset of the right-side
      projections of the rows currently stored, so the "is this tuple
      already witnessed" test is one dict probe.  INDs with the same
      right side (relation and positions) share one table, so a row
      added or rewritten updates each distinct table of its relation
      once (``projections``), not once per IND.  Tables are per-run
      state like everything else here: the engine holds only the
      projectors;
    * ``rows_by_value`` — value -> rows reverse index driving
      :meth:`merge` repair: when two values are equated, exactly the
      rows containing the dead root are rewritten (and re-journaled),
      instead of re-canonicalizing every tuple via ``normalize()``.
    """

    def __init__(self, engine: "ChaseEngine", instance: ChaseInstance):
        self.engine = engine
        self.instance = instance
        instance.normalize()
        self.logs: dict[str, list[tuple[int, ...]]] = {
            rel: list(rows) for rel, rows in instance.relations.items()
        }
        # Buckets are insertion-ordered dicts, not sets: ``merge``
        # re-journals a bucket's rows in its iteration order, and a set
        # of ``(relation name, row)`` pairs iterates in an order that
        # depends on the per-process string hash seed.
        self.rows_by_value: dict[int, dict[tuple[str, tuple[int, ...]], None]] = {}
        for rel, rows in instance.relations.items():
            for row in rows:
                self._index_row(rel, row)
        self.fd_groups: list[dict] = [{} for _ in engine.fds]
        self.fd_cursors = [0] * len(engine.fds)
        self.rd_cursors = [0] * len(engine.rds)
        self.ind_cursors = [0] * len(engine.inds)
        tables: dict[int, dict] = {}
        self.projections: dict[str, list[tuple[Projector, dict]]] = {}
        self.ind_existing: list[dict] = []
        for _project, _pairs, _arity, side in engine._ind_rules:
            counts = tables.get(side)
            if counts is None:
                rel, project = engine._sides[side]
                counts = tables[side] = {}
                for row in instance.relations[rel]:
                    proj = project(row)
                    counts[proj] = counts.get(proj, 0) + 1
                self.projections.setdefault(rel, []).append((project, counts))
            self.ind_existing.append(counts)
        self.rows_scanned = 0

    # -- row bookkeeping ---------------------------------------------------

    def _index_row(self, rel: str, row: tuple[int, ...]) -> None:
        for value in dict.fromkeys(row):
            self.rows_by_value.setdefault(value, {})[(rel, row)] = None

    def _unindex_row(self, rel: str, row: tuple[int, ...]) -> None:
        for value in dict.fromkeys(row):
            bucket = self.rows_by_value.get(value)
            if bucket is not None:
                bucket.pop((rel, row), None)

    def _track_projections(self, rel: str, row: tuple[int, ...], delta: int) -> None:
        """Adjust every projection-count table over ``rel``."""
        for project, counts in self.projections.get(rel, ()):
            proj = project(row)
            updated = counts.get(proj, 0) + delta
            if updated:
                counts[proj] = updated
            else:
                del counts[proj]  # only a counted row is ever removed

    def add_row(
        self, rel: str, row: Sequence[int], dependency: IND | None = None
    ) -> bool:
        """Journal-aware :meth:`ChaseInstance.add_row`."""
        instance = self.instance
        canonical = instance.canonical_row(row)
        if canonical in instance.relations[rel]:
            return False
        instance.relations[rel].add(canonical)
        if dependency is not None:
            instance.events.append(AddEvent(dependency, rel, canonical))
        self._index_row(rel, canonical)
        self._track_projections(rel, canonical, +1)
        self.logs[rel].append(canonical)
        return True

    def merge(self, a: int, b: int, dependency: Dependency) -> bool:
        """Merge two values, then repair rows and indexes in place.

        Only rows containing the merged-away root are rewritten; each
        rewritten row is re-journaled so every rule revisits it.  Rows
        that collapse into an already-present row just disappear (the
        surviving row carries no new information).
        """
        instance = self.instance
        if not instance.merge(a, b, dependency):
            return False
        dead = instance.events[-1].merged
        affected = self.rows_by_value.pop(dead, None)
        if not affected:
            return True
        for rel, old in affected:
            rows = instance.relations[rel]
            rows.discard(old)
            self._unindex_row(rel, old)
            self._track_projections(rel, old, -1)
            rewritten = instance.canonical_row(old)
            if rewritten in rows:
                continue
            rows.add(rewritten)
            self._index_row(rel, rewritten)
            self._track_projections(rel, rewritten, +1)
            self.logs[rel].append(rewritten)
        return True

    # -- rule applications (delta-driven) ----------------------------------

    def apply_fd(self, index: int, fd: FD) -> bool:
        instance = self.instance
        key_of, image_of = self.engine._fd_projections[index]
        rows = instance.relations[fd.relation]
        log = self.logs[fd.relation]
        groups = self.fd_groups[index]
        cursor = self.fd_cursors[index]
        end = len(log)  # repair appends are processed on the next pass
        changed = False
        find = instance.find
        while cursor < end:
            row = log[cursor]
            cursor += 1
            self.rows_scanned += 1
            if row not in rows:
                continue  # rewritten away since it was journaled
            key = key_of(row)
            other = groups.get(key)
            if other is None:
                groups[key] = image_of(row)
                continue
            for a, b in zip(other, image_of(row)):
                if find(a) != find(b):
                    try:
                        self.merge(a, b, fd)
                    finally:
                        self.fd_cursors[index] = cursor
                    changed = True
        self.fd_cursors[index] = cursor
        return changed

    def apply_rd(self, index: int, rd: RD) -> bool:
        instance = self.instance
        pair_pos = self.engine._rd_positions[index]
        rows = instance.relations[rd.relation]
        log = self.logs[rd.relation]
        cursor = self.rd_cursors[index]
        end = len(log)
        changed = False
        find = instance.find
        while cursor < end:
            row = log[cursor]
            cursor += 1
            self.rows_scanned += 1
            if row not in rows:
                continue
            for left, right in pair_pos:
                a, b = row[left], row[right]
                if find(a) != find(b):
                    try:
                        self.merge(a, b, rd)
                    finally:
                        self.rd_cursors[index] = cursor
                    changed = True
        self.rd_cursors[index] = cursor
        return changed

    def apply_ind(self, index: int, ind: IND) -> bool:
        instance = self.instance
        project, pairs, dst_arity, _side = self.engine._ind_rules[index]
        rows = instance.relations[ind.lhs_relation]
        log = self.logs[ind.lhs_relation]
        existing = self.ind_existing[index]
        cursor = self.ind_cursors[index]
        end = len(log)  # self-INDs pick up their own additions next round
        changed = False
        while cursor < end:
            row = log[cursor]
            cursor += 1
            self.rows_scanned += 1
            if row not in rows:
                continue
            if existing.get(project(row)):
                continue
            new_row = instance._fresh_nulls(dst_arity)
            for src, dst in pairs:
                new_row[dst] = row[src]
            self.add_row(ind.rhs_relation, new_row, ind)
            changed = True
        self.ind_cursors[index] = cursor
        return changed


class _NaiveState:
    """Per-run state of the naive strategy: the textbook rescan.

    Nothing persists across rule applications but the work counter —
    every application re-reads its relations in full and re-derives
    its column positions from the schema.
    """

    def __init__(self, engine: "ChaseEngine", instance: ChaseInstance):
        self.schema = engine.schema
        self.instance = instance
        self.rows_scanned = 0

    def apply_fd(self, _index: int, fd: FD) -> bool:
        instance = self.instance
        rel_schema = self.schema.relation(fd.relation)
        lhs_pos = rel_schema.positions(fd.lhs)
        rhs_pos = rel_schema.positions(fd.rhs)
        changed = False
        groups: dict[tuple[int, ...], tuple[int, ...]] = {}
        for row in list(instance.relations[fd.relation]):
            self.rows_scanned += 1
            row = instance.canonical_row(row)
            key = tuple(row[p] for p in lhs_pos)
            image = tuple(row[p] for p in rhs_pos)
            other = groups.get(key)
            if other is None:
                groups[key] = image
                continue
            for a, b in zip(other, image):
                if instance.find(a) != instance.find(b):
                    instance.merge(a, b, fd)
                    changed = True
        if changed:
            instance.normalize()
        return changed

    def apply_rd(self, _index: int, rd: RD) -> bool:
        instance = self.instance
        rel_schema = self.schema.relation(rd.relation)
        changed = False
        for row in list(instance.relations[rd.relation]):
            self.rows_scanned += 1
            row = instance.canonical_row(row)
            for left, right in rd.pairs:
                a = row[rel_schema.position(left)]
                b = row[rel_schema.position(right)]
                if instance.find(a) != instance.find(b):
                    instance.merge(a, b, rd)
                    changed = True
        if changed:
            instance.normalize()
        return changed

    def apply_ind(self, _index: int, ind: IND) -> bool:
        instance = self.instance
        src_schema = self.schema.relation(ind.lhs_relation)
        dst_schema = self.schema.relation(ind.rhs_relation)
        src_pos = src_schema.positions(ind.lhs_attributes)
        dst_pos = dst_schema.positions(ind.rhs_attributes)
        existing = {
            tuple(row[p] for p in dst_pos)
            for row in (
                instance.canonical_row(r)
                for r in instance.relations[ind.rhs_relation]
            )
        }
        changed = False
        for row in list(instance.relations[ind.lhs_relation]):
            self.rows_scanned += 1
            row = instance.canonical_row(row)
            needed = tuple(row[p] for p in src_pos)
            if needed in existing:
                continue
            new_row: list[int] = [
                instance.fresh_null() for _ in range(dst_schema.arity)
            ]
            for value, pos in zip(needed, dst_pos):
                new_row[pos] = value
            instance.add_row(ind.rhs_relation, new_row, ind)
            existing.add(needed)
            changed = True
        return changed


@dataclass
class ChaseOutcome:
    """Result of running the chase to fixpoint (or budget).

    ``rows_scanned`` counts the rows the run's rule applications
    examined — the work measure that separates the semi-naive strategy
    (O(deltas) per round) from the naive rescan (O(rows) per rule per
    round).
    """

    instance: ChaseInstance
    rounds: int
    reached_fixpoint: bool
    failed: bool = False
    failure_reason: str = ""
    rows_scanned: int = 0


STRATEGIES = ("semi-naive", "naive")


def _no_tick() -> None:
    """The default cooperative check: free, never fires."""


Projector = Callable[[tuple[int, ...]], object]
"""A compiled column projection of a row."""


def _no_columns(_row: tuple[int, ...]) -> tuple[()]:
    return ()


def _key_projector(positions: tuple[int, ...]) -> Projector:
    """A projection that is only looked up, never iterated.

    ``itemgetter`` returns a bare value, not a 1-tuple, at arity 1, so
    both sides of a lookup must use projectors over the same number of
    positions (an IND's two sides always do).
    """
    return itemgetter(*positions) if positions else _no_columns


def _tuple_projector(positions: tuple[int, ...]) -> Projector:
    """A projection that is iterated, so always a tuple (``positions``
    is an FD's right side, never empty)."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    return itemgetter(*positions)


def _kept(rules: list, compiled: list, keep) -> tuple[list, list]:
    """The rules satisfying ``keep``, with their compiled projections,
    in their original order."""
    indices = [i for i, rule in enumerate(rules) if keep(rule)]
    return [rules[i] for i in indices], [compiled[i] for i in indices]


class ChaseEngine:
    """Runs FD/IND/RD chase steps over a :class:`ChaseInstance`.

    The engine holds only the validated premises and their compiled
    column projections; every run keeps its state (journals, indexes,
    count tables, the ``rows_scanned`` counter) to itself, so one
    engine can serve any number of runs, concurrent ones included.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        dependencies: Iterable[Dependency],
        strategy: str = "semi-naive",
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown chase strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self.schema = schema
        self.strategy = strategy
        self.fds: list[FD] = []
        self.inds: list[IND] = []
        self.rds: list[RD] = []
        for dep in dependencies:
            dep.validate(schema)
            if isinstance(dep, FD):
                self.fds.append(dep)
            elif isinstance(dep, IND):
                self.inds.append(dep)
            elif isinstance(dep, RD):
                self.rds.append(dep)
            else:
                raise UnsupportedDependencyError(
                    f"chase supports FDs, INDs and RDs, got {dep}"
                )
        # Projections are a per-rule constant; compile them once instead
        # of re-deriving positions from the schema at every application.
        # FD: (group key, right-hand image).
        self._fd_projections = []
        for fd in self.fds:
            rel_schema = self.schema.relation(fd.relation)
            self._fd_projections.append((
                _key_projector(rel_schema.positions(fd.lhs)),
                _tuple_projector(rel_schema.positions(fd.rhs)),
            ))
        self._rd_positions = [
            tuple(
                (
                    self.schema.relation(rd.relation).position(left),
                    self.schema.relation(rd.relation).position(right),
                )
                for left, right in rd.pairs
            )
            for rd in self.rds
        ]
        # IND: (left projection, (source, destination) position pairs,
        # destination arity, right side).  INDs with the same right side
        # (relation and positions) share one side, whose projector keys
        # the count table they share in a run.
        sides: dict[tuple[str, tuple[int, ...]], int] = {}
        self._ind_rules = []
        for ind in self.inds:
            src_schema = self.schema.relation(ind.lhs_relation)
            dst_schema = self.schema.relation(ind.rhs_relation)
            src_pos = src_schema.positions(ind.lhs_attributes)
            dst_pos = dst_schema.positions(ind.rhs_attributes)
            side = sides.setdefault((ind.rhs_relation, dst_pos), len(sides))
            self._ind_rules.append((
                _key_projector(src_pos),
                tuple(zip(src_pos, dst_pos)),
                dst_schema.arity,
                side,
            ))
        self._sides: list[tuple[str, Projector]] = [
            (rel, _key_projector(dst_pos)) for rel, dst_pos in sides
        ]
        self._reaching_memo: dict[str, ChaseEngine] = {}

    # -- rule pruning ---------------------------------------------------------

    def reaching(self, relation: str) -> "ChaseEngine":
        """This engine cut down to the rules a chase seeded in ``relation``
        can fire.

        Only INDs add rows, and only to their right-hand relation, so a
        chase whose instance starts with rows in ``relation`` alone only
        ever populates the relations reachable from it along IND
        left-to-right edges.  Every FD and RD over another relation,
        and every IND reading from one, has an empty journal for the
        whole run and never fires: dropping them changes no round,
        event, row count or budget exit.  The restriction filters the
        compiled rule lists (nothing is re-validated or recompiled), is
        memoized per relation, and is ``self`` when nothing is pruned.
        """
        engine = self._reaching_memo.get(relation)
        if engine is None:
            successors: dict[str, list[str]] = {}
            for ind in self.inds:
                successors.setdefault(ind.lhs_relation, []).append(
                    ind.rhs_relation
                )
            reached = {relation}
            stack = [relation]
            while stack:
                for nxt in successors.get(stack.pop(), ()):
                    if nxt not in reached:
                        reached.add(nxt)
                        stack.append(nxt)
            engine = self._restricted(reached)
            self._reaching_memo[relation] = engine
        return engine

    def _restricted(self, relations: set[str]) -> "ChaseEngine":
        fds, fd_projections = _kept(
            self.fds, self._fd_projections, lambda fd: fd.relation in relations
        )
        rds, rd_positions = _kept(
            self.rds, self._rd_positions, lambda rd: rd.relation in relations
        )
        inds, ind_rules = _kept(
            self.inds, self._ind_rules,
            lambda ind: ind.lhs_relation in relations,
        )
        if (len(fds), len(rds), len(inds)) == (
            len(self.fds), len(self.rds), len(self.inds)
        ):
            return self
        sub = ChaseEngine.__new__(ChaseEngine)
        sub.schema = self.schema
        sub.strategy = self.strategy
        sub.fds, sub._fd_projections = fds, fd_projections
        sub.rds, sub._rd_positions = rds, rd_positions
        sub.inds, sub._ind_rules = inds, ind_rules
        sub._sides = self._sides
        sub._reaching_memo = {}
        return sub

    # -- full runs ------------------------------------------------------------

    def run(
        self,
        instance: ChaseInstance,
        max_rounds: int = 200,
        max_tuples: int = 100_000,
        goal=None,
        tick=None,
    ) -> ChaseOutcome:
        """Chase to fixpoint; raise on budget exhaustion.

        A round applies all equality rules to their own fixpoint, then
        every IND once.  The chase is monotone in the derived facts, so
        fixpoint detection is sound.

        ``goal`` is an optional predicate over the instance; when it
        turns true the run stops early (sound for implication testing:
        every chase step is a logical consequence, so a goal reached at
        any finite stage certifies the implication even when the full
        chase would diverge).

        ``tick`` is an optional zero-argument cooperative check (a
        :meth:`~repro.engine.deadline.Deadline.check`, typically),
        polled before every rule application; whatever it raises
        propagates with the instance left mid-chase.

        The engine's ``strategy`` selects semi-naive (delta-driven,
        the default) or naive (full rescan) evaluation; both apply the
        same rule instances in the same round structure.
        """
        if self.strategy == "semi-naive":
            state = _SemiNaiveState(self, instance)
        else:
            state = _NaiveState(self, instance)
        return self._drive(state, max_rounds, max_tuples, goal, tick)

    def _drive(
        self,
        state,
        max_rounds: int,
        max_tuples: int,
        goal,
        tick=None,
    ) -> ChaseOutcome:
        """The round loop both strategies share.

        ``state.apply_*(index, rule) -> changed`` applies one rule
        (:class:`_NaiveState` rescans, :class:`_SemiNaiveState` reads
        its deltas) and ``state.rows_scanned`` is the run's work
        counter.  Sharing this one loop is what guarantees the two
        strategies fire rules in the same round structure.  ``tick``
        (when given) is polled before every rule application, bounding
        the time between cooperative checks by one rule's scan over the
        instance.
        """
        if tick is None:
            tick = _no_tick
        instance = state.instance
        rounds = 0
        if goal is not None and goal(instance):
            return ChaseOutcome(instance, rounds, reached_fixpoint=False,
                                rows_scanned=state.rows_scanned)
        while rounds < max_rounds:
            rounds += 1
            changed = False
            # Equality rules first (cheap, shrink the instance).
            equality_changed = True
            while equality_changed:
                equality_changed = False
                for index, fd in enumerate(self.fds):
                    tick()
                    try:
                        if state.apply_fd(index, fd):
                            equality_changed = True
                    except DependencyError as exc:
                        return ChaseOutcome(
                            instance, rounds, reached_fixpoint=False,
                            failed=True, failure_reason=str(exc),
                            rows_scanned=state.rows_scanned,
                        )
                for index, rd in enumerate(self.rds):
                    tick()
                    try:
                        if state.apply_rd(index, rd):
                            equality_changed = True
                    except DependencyError as exc:
                        return ChaseOutcome(
                            instance, rounds, reached_fixpoint=False,
                            failed=True, failure_reason=str(exc),
                            rows_scanned=state.rows_scanned,
                        )
                changed = changed or equality_changed
            for index, ind in enumerate(self.inds):
                tick()
                if state.apply_ind(index, ind):
                    changed = True
            if goal is not None and goal(instance):
                return ChaseOutcome(instance, rounds, reached_fixpoint=False,
                                    rows_scanned=state.rows_scanned)
            if instance.total_tuples() > max_tuples:
                raise ChaseBudgetExceeded(
                    f"chase exceeded {max_tuples} tuples after {rounds} rounds",
                    rounds=rounds,
                    tuples=instance.total_tuples(),
                )
            if not changed:
                return ChaseOutcome(instance, rounds, reached_fixpoint=True,
                                    rows_scanned=state.rows_scanned)
        raise ChaseBudgetExceeded(
            f"chase did not converge within {max_rounds} rounds",
            rounds=rounds,
            tuples=instance.total_tuples(),
        )

    # -- implication testing ------------------------------------------------

    def implies(
        self,
        target: Dependency,
        max_rounds: int = 200,
        max_tuples: int = 100_000,
        tick=None,
    ) -> "ImplicationCertificate":
        """Decide ``premises |= target`` (unrestricted) by chasing.

        Seeds a fresh instance with the target's left-hand side (two
        tuples agreeing on an FD's lhs, one tuple for an IND or RD) and
        chases it under :meth:`reaching` for the seeded relation — the
        target's ``relation`` for an FD or RD, its ``lhs_relation`` for
        an IND — so each question runs only the rules it can fire.  The
        result equals a run of the full engine in verdict, rounds,
        events, rows scanned and final instance, budget exits included.

        Terminating chases give exact answers; divergence raises
        :class:`ChaseBudgetExceeded`.  ``tick`` (an optional
        cooperative deadline check) is polled before every rule
        application; see :meth:`run`.  The engine is not modified, so
        one engine answers any number of questions.
        """
        target.validate(self.schema)
        schema = self.schema
        instance = ChaseInstance(schema)

        if isinstance(target, FD):
            start = target.relation
            rel_schema = schema.relation(start)
            shared = {
                attr: instance.fresh_null(f"x_{attr}") for attr in target.lhs
            }
            row1 = []
            row2 = []
            for attr in rel_schema.attributes:
                if attr in shared:
                    row1.append(shared[attr])
                    row2.append(shared[attr])
                else:
                    row1.append(instance.fresh_null(f"{attr.lower()}1"))
                    row2.append(instance.fresh_null(f"{attr.lower()}2"))
            instance.add_row(start, row1)
            instance.add_row(start, row2)
            rhs_pos = rel_schema.positions(target.rhs)

            def goal(inst: ChaseInstance) -> bool:
                return all(inst.same(row1[p], row2[p]) for p in rhs_pos)

        elif isinstance(target, RD):
            start = target.relation
            rel_schema = schema.relation(start)
            row = [instance.fresh_null(f"{attr.lower()}0")
                   for attr in rel_schema.attributes]
            instance.add_row(start, row)
            pair_pos = [
                (rel_schema.position(left), rel_schema.position(right))
                for left, right in target.pairs
            ]

            def goal(inst: ChaseInstance) -> bool:
                return all(inst.same(row[lp], row[rp]) for lp, rp in pair_pos)

        elif isinstance(target, IND):
            start = target.lhs_relation
            src_schema = schema.relation(start)
            row = [instance.fresh_null(f"{attr.lower()}0")
                   for attr in src_schema.attributes]
            instance.add_row(start, row)
            dst_schema = schema.relation(target.rhs_relation)
            src_pos = src_schema.positions(target.lhs_attributes)
            dst_pos = dst_schema.positions(target.rhs_attributes)

            def goal(inst: ChaseInstance) -> bool:
                wanted = tuple(inst.find(row[p]) for p in src_pos)
                return any(
                    tuple(inst.find(r[p]) for p in dst_pos) == wanted
                    for r in inst.relations[target.rhs_relation]
                )

        else:
            raise UnsupportedDependencyError(f"cannot chase target {target}")

        outcome = self.reaching(start).run(
            instance, max_rounds=max_rounds, max_tuples=max_tuples,
            goal=goal, tick=tick,
        )
        implied = goal(instance)
        detail = ""
        if isinstance(target, FD):
            detail = ("rhs values equated" if implied
                      else "rhs values distinct at fixpoint")
        return ImplicationCertificate(implied, outcome, detail=detail)


# ---------------------------------------------------------------------------
# Implication testing via the chase
# ---------------------------------------------------------------------------


@dataclass
class ImplicationCertificate:
    """A decided implication question with its chase evidence."""

    implied: bool
    outcome: ChaseOutcome
    detail: str = ""

    def counterexample(self) -> Optional[Database]:
        """The chased instance as a database, when it refutes the target."""
        if self.implied:
            return None
        return self.outcome.instance.to_database()


def chase_implies(
    schema: DatabaseSchema,
    premises: Iterable[Dependency],
    target: Dependency,
    max_rounds: int = 200,
    max_tuples: int = 100_000,
    strategy: str = "semi-naive",
    tick=None,
) -> ImplicationCertificate:
    """Decide ``premises |= target`` (unrestricted) by chasing.

    Builds a :class:`ChaseEngine` over ``premises`` and asks it once
    (:meth:`ChaseEngine.implies`); callers with many questions over one
    premise set should keep the engine instead, as
    :class:`~repro.engine.index.PremiseIndex` does.  Terminating chases
    give exact answers; divergence raises :class:`ChaseBudgetExceeded`.
    The target may be an FD, IND, or RD.  ``tick`` (an optional
    cooperative deadline check) is polled before every rule
    application; see :meth:`ChaseEngine.run`.
    """
    engine = ChaseEngine(schema, premises, strategy=strategy)
    return engine.implies(
        target, max_rounds=max_rounds, max_tuples=max_tuples, tick=tick
    )


def chase_database(
    db: Database,
    dependencies: Iterable[Dependency],
    max_rounds: int = 200,
    max_tuples: int = 100_000,
    strategy: str = "semi-naive",
) -> Database:
    """Repair ``db`` into a superset instance satisfying ``dependencies``.

    Every existing value becomes a constant; the chase adds tuples (with
    fresh nulls) and merges nulls as needed.  Raises on chase failure
    (two distinct constants forced equal) or budget exhaustion.  Used by
    the referential-integrity example and workload generators.
    """
    schema = db.schema
    engine = ChaseEngine(schema, dependencies, strategy=strategy)
    instance = ChaseInstance(schema)
    ids: dict[object, int] = {}
    for rel in db:
        for row in rel:
            encoded = []
            for value in row:
                if value not in ids:
                    ids[value] = instance.fresh_constant(str(value))
                encoded.append(ids[value])
            instance.add_row(rel.name, encoded)
    outcome = engine.run(instance, max_rounds=max_rounds, max_tuples=max_tuples)
    if outcome.failed:
        raise DependencyError(f"chase failed: {outcome.failure_reason}")
    return instance.to_database()
