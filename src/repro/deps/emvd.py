"""Embedded multivalued dependencies ``X ->> Y | Z`` (paper, Section 5).

A relation ``r`` obeys the EMVD ``X ->> Y | Z`` (with ``Y`` and ``Z``
disjoint attribute sets) if whenever ``t1, t2`` in ``r`` agree on
``X``, there is a ``t3`` in ``r`` with ``t3[XY] = t1[XY]`` and
``t3[XZ] = t2[XZ]``.

The paper uses Sagiv and Walecka's EMVD family to demonstrate its
Corollary 5.2 on the nonexistence of k-ary complete axiomatizations
(Theorem 5.3).  An MVD is the special case where ``X u Y u Z`` covers
all attributes of the scheme.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.exceptions import DependencyError
from repro.deps.base import Dependency
from repro.model.attributes import as_attribute_sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.database import Database
    from repro.model.schema import DatabaseSchema


class EMVD(Dependency):
    """The embedded multivalued dependency ``X ->> Y | Z`` over ``R``."""

    __slots__ = ("relation", "x", "y", "z")

    def __init__(
        self,
        relation: str,
        x: str | Iterable[str] | None,
        y: str | Iterable[str],
        z: str | Iterable[str],
    ):
        if not relation:
            raise DependencyError("EMVD needs a relation name")
        x_set = frozenset(() if x is None else as_attribute_sequence(x))
        y_set = frozenset(as_attribute_sequence(y))
        z_set = frozenset(as_attribute_sequence(z))
        if not y_set or not z_set:
            raise DependencyError("EMVD Y and Z components must be non-empty")
        if y_set & z_set:
            raise DependencyError(
                f"EMVD Y and Z must be disjoint, both contain {sorted(y_set & z_set)}"
            )
        self.relation = relation
        self.x = x_set
        self.y = y_set
        self.z = z_set

    # -- structure ------------------------------------------------------

    def is_trivial(self) -> bool:
        """Sufficient syntactic triviality check.

        If ``Y - X`` or ``Z - X`` is empty, the witness tuple ``t3`` can
        always be chosen as ``t2`` or ``t1`` respectively, so the EMVD
        is a tautology.
        """
        return not (self.y - self.x) or not (self.z - self.x)

    def relations(self) -> tuple[str, ...]:
        return (self.relation,)

    def rename(self, mapping: dict[str, str]) -> "EMVD":
        return EMVD(mapping.get(self.relation, self.relation),
                    tuple(sorted(self.x)) or None,
                    tuple(sorted(self.y)), tuple(sorted(self.z)))

    def validate(self, schema: "DatabaseSchema") -> None:
        rel = schema.relation(self.relation)
        for attr in (*self.x, *self.y, *self.z):
            if attr not in rel:
                raise DependencyError(f"attribute {attr!r} of {self} is not in {rel}")

    # -- semantics ------------------------------------------------------

    def holds_in(self, db: "Database") -> bool:
        rel = db.relation(self.relation)
        x_seq = tuple(sorted(self.x))
        xy_seq = tuple(sorted(self.x | self.y))
        xz_seq = tuple(sorted(self.x | self.z))
        x_pos = rel.schema.positions(x_seq)
        xy_pos = rel.schema.positions(xy_seq)
        xz_pos = rel.schema.positions(xz_seq)

        groups: dict[tuple, list[tuple]] = {}
        for row in rel:
            groups.setdefault(tuple(row[p] for p in x_pos), []).append(row)
        for rows in groups.values():
            xy_values = {tuple(row[p] for p in xy_pos) for row in rows}
            xz_values = {tuple(row[p] for p in xz_pos) for row in rows}
            present = {
                (tuple(row[p] for p in xy_pos), tuple(row[p] for p in xz_pos))
                for row in rows
            }
            # For every pair (t1, t2) in the group we need the
            # combination (t1[XY], t2[XZ]) to be realized by some t3
            # of the same group (t3 agrees on X automatically).
            for xy in xy_values:
                for xz in xz_values:
                    if (xy, xz) not in present:
                        return False
        return True

    # -- identity -------------------------------------------------------

    def _key(self) -> tuple:
        return ("EMVD", self.relation, self.x, self.y, self.z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EMVD):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        x = ",".join(sorted(self.x)) if self.x else "0"
        return (
            f"{self.relation}: {x} ->> {','.join(sorted(self.y))}"
            f" | {','.join(sorted(self.z))}"
        )

    def __repr__(self) -> str:
        return (
            f"EMVD({self.relation!r}, {sorted(self.x)!r}, "
            f"{sorted(self.y)!r}, {sorted(self.z)!r})"
        )


class MVD(EMVD):
    """A (full) multivalued dependency: ``X ->> Y`` with Z = rest.

    Constructed from a relation scheme so the complement can be taken.
    """

    def __init__(
        self,
        relation: str,
        attributes: Iterable[str],
        x: str | Iterable[str] | None,
        y: str | Iterable[str],
    ):
        all_attrs = frozenset(as_attribute_sequence(tuple(attributes)))
        x_set = frozenset(() if x is None else as_attribute_sequence(x))
        y_set = frozenset(as_attribute_sequence(y)) - x_set
        z_set = all_attrs - x_set - y_set
        if not y_set:
            # Degenerate: Y subset of X; represent with Z as the body.
            y_set = z_set or frozenset(all_attrs - x_set)
            z_set = frozenset()
        if not z_set:
            # Fully trivial MVD; encode as an EMVD with Z = Y to keep
            # the class total (it is a tautology either way).
            z_set = y_set
            super().__init__(relation, tuple(sorted(x_set)) or None,
                             tuple(sorted(y_set)), tuple(sorted(z_set)))
            return
        super().__init__(relation, tuple(sorted(x_set)) or None,
                         tuple(sorted(y_set)), tuple(sorted(z_set)))
