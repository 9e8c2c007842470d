"""Relation schemes and database schemes (paper, Section 2).

A *relation scheme* is a pair ``(R, U)`` where ``R`` is a name and
``U`` a finite sequence of distinct attributes.  A *database scheme*
is a finite set of relation schemes with distinct names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.exceptions import SchemaError
from repro.model.attributes import AttributeSequence, as_attribute_sequence, check_distinct


@dataclass(frozen=True)
class RelationSchema:
    """A named relation scheme ``R[A1,...,Am]``.

    The attribute *order* is significant: tuples are sequences whose
    i-th entry lives in the i-th attribute's column.
    """

    name: str
    attributes: AttributeSequence

    def __init__(self, name: str, attributes: str | Iterable[str]):
        if not name or not isinstance(name, str):
            raise SchemaError(f"relation name must be a non-empty string, got {name!r}")
        normalized = check_distinct(
            as_attribute_sequence(attributes), context=f"relation scheme {name}"
        )
        if not normalized:
            raise SchemaError(f"relation scheme {name} must have at least one attribute")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", normalized)

    @property
    def arity(self) -> int:
        """Number of attributes of the scheme."""
        return len(self.attributes)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes

    def position(self, attribute: str) -> int:
        """Zero-based column index of ``attribute``.

        Raises :class:`SchemaError` for unknown attributes.
        """
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(
                f"attribute {attribute!r} is not in relation scheme {self.name}"
                f"[{', '.join(self.attributes)}]"
            ) from None

    def positions(self, attrs: str | Iterable[str]) -> tuple[int, ...]:
        """Column indices for a sequence of attributes, in order."""
        return tuple(self.position(a) for a in as_attribute_sequence(attrs))

    def __str__(self) -> str:
        return f"{self.name}[{','.join(self.attributes)}]"


class DatabaseSchema:
    """An immutable collection of relation schemes with distinct names."""

    def __init__(self, schemas: Iterable[RelationSchema]):
        by_name: dict[str, RelationSchema] = {}
        for schema in schemas:
            if not isinstance(schema, RelationSchema):
                raise SchemaError(f"expected RelationSchema, got {schema!r}")
            if schema.name in by_name:
                raise SchemaError(f"duplicate relation name {schema.name!r} in database scheme")
            by_name[schema.name] = schema
        self._by_name: Mapping[str, RelationSchema] = dict(by_name)

    @classmethod
    def of(cls, *schemas: RelationSchema) -> "DatabaseSchema":
        """Variadic convenience constructor."""
        return cls(schemas)

    @classmethod
    def from_dict(cls, spec: Mapping[str, str | Iterable[str]]) -> "DatabaseSchema":
        """Build from ``{"R": ("A", "B"), "S": ("C",)}``-style mappings."""
        return cls(RelationSchema(name, attrs) for name, attrs in spec.items())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def relation(self, name: str) -> RelationSchema:
        """Scheme for ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r} in database scheme") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return dict(self._by_name) == dict(other._by_name)

    def __hash__(self) -> int:
        return hash(frozenset(self._by_name.items()))

    def extended_with(self, *schemas: RelationSchema) -> "DatabaseSchema":
        """A new database scheme with extra relation schemes appended."""
        return DatabaseSchema(list(self) + list(schemas))

    def __str__(self) -> str:
        return "{" + ", ".join(str(s) for s in self) + "}"

    def __repr__(self) -> str:
        return f"DatabaseSchema({list(self._by_name.values())!r})"
