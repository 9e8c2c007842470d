"""JSON serialization for schemas, dependencies, and databases.

A small, stable on-disk format so dependency sets and instances can be
shipped between tools:

.. code-block:: json

    {
      "schema": {"MGR": ["NAME", "DEPT"], "EMP": ["NAME", "DEPT"]},
      "dependencies": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
                       "EMP: NAME -> DEPT"],
      "database": {"MGR": [["Hilbert", "Math"]]}
    }

Dependencies use the text DSL (round-tripping through the parser), so
the files stay human-editable.  Loading validates the payload shape
strictly — unknown top-level keys, rows over unknown relations, and
rows of the wrong arity all raise :class:`ParseError` with enough
context to find the offending entry.

Bundles can be loaded straight into a
:class:`~repro.engine.session.ReasoningSession` with
:func:`session_from_json` / :func:`load_session`.

A *patch* is the bundle's mutation companion — the on-disk form of one
``add``/``retract`` step of the session lifecycle:

.. code-block:: json

    {
      "retract": ["EMP: NAME -> DEPT"],
      "add": ["EMP[NAME] <= PERSON[NAME]"]
    }

:func:`patch_from_json` parses and validates one against a schema, and
:func:`apply_patch` plays it into a live session (retractions first,
then additions, as one version bump each).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, TextIO

from repro.exceptions import ParseError
from repro.deps.base import Dependency
from repro.deps.parser import parse_dependency
from repro.engine.session import ReasoningSession
from repro.model.builders import database as build_database
from repro.model.database import Database
from repro.model.schema import DatabaseSchema

_BUNDLE_KEYS = ("schema", "dependencies", "database")


def schema_to_dict(schema: DatabaseSchema) -> dict[str, list[str]]:
    return {rel.name: list(rel.attributes) for rel in schema}


def schema_from_dict(spec: dict[str, Any]) -> DatabaseSchema:
    return DatabaseSchema.from_dict(spec)


def database_to_dict(db: Database) -> dict[str, list[list[Any]]]:
    return {
        rel.name: [list(row) for row in rel.sorted_rows()] for rel in db
    }


def bundle_to_payload(
    schema: DatabaseSchema,
    dependencies: Iterable[Dependency] | None = None,
    db: Database | None = None,
) -> dict[str, Any]:
    """A (schema, dependencies, database) bundle as the JSON-ready dict
    :func:`bundle_from_payload` reads back."""
    payload: dict[str, Any] = {"schema": schema_to_dict(schema)}
    if dependencies is not None:
        payload["dependencies"] = [str(dep) for dep in dependencies]
    if db is not None:
        payload["database"] = database_to_dict(db)
    return payload


def bundle_to_json(
    schema: DatabaseSchema,
    dependencies: list[Dependency] | None = None,
    db: Database | None = None,
    indent: int = 2,
) -> str:
    """Serialize a (schema, dependencies, database) bundle."""
    return json.dumps(
        bundle_to_payload(schema, dependencies, db), indent=indent,
        default=str,
    )


def _schema_from_payload(payload: Any) -> DatabaseSchema:
    """Validate the shape of the schema section before building it.

    JSON bundles must spell attributes as arrays of strings; anything
    else (a bare string would otherwise be iterated character by
    character) is reported as a :class:`ParseError`.
    """
    if not isinstance(payload, dict):
        raise ParseError(
            f"bundle 'schema' must be an object mapping relation names to "
            f"attribute lists, got {type(payload).__name__}"
        )
    for name, attrs in payload.items():
        if not isinstance(attrs, list) or not all(
            isinstance(attr, str) for attr in attrs
        ):
            raise ParseError(
                f"schema entry {name!r} must be a list of attribute "
                f"names, got {attrs!r}"
            )
    return schema_from_dict(payload)


def _database_from_payload(
    schema: DatabaseSchema, payload: Any
) -> Database:
    """Validate and build the optional database section.

    Row problems are reported with relation/row context instead of the
    bare arity or hashing error the model layer would raise: a row has
    the relation's arity, and each cell is a JSON scalar.
    """
    if not isinstance(payload, dict):
        raise ParseError(
            f"bundle 'database' must be an object mapping relation names "
            f"to row lists, got {type(payload).__name__}"
        )
    contents: dict[str, list[tuple]] = {}
    for name, rows in payload.items():
        if name not in schema:
            raise ParseError(
                f"database mentions relation {name!r} which is not in the "
                f"schema (known: {', '.join(schema.names)})"
            )
        arity = schema.relation(name).arity
        checked: list[tuple] = []
        if not isinstance(rows, list):
            raise ParseError(
                f"database entry for relation {name!r} must be a list of "
                f"rows, got {type(rows).__name__}"
            )
        for position, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise ParseError(
                    f"row {position} of relation {name!r} must be an "
                    f"array, got {row!r}"
                )
            if len(row) != arity:
                raise ParseError(
                    f"row {position} of relation {name!r} has {len(row)} "
                    f"value(s) but {schema.relation(name)} has arity "
                    f"{arity}: {row!r}"
                )
            for value in row:
                if not (value is None or isinstance(value, (str, int, float))):
                    raise ParseError(
                        f"row {position} of relation {name!r} holds "
                        f"{value!r}: a database cell must be a JSON scalar"
                    )
            checked.append(tuple(row))
        contents[name] = checked
    return build_database(schema, contents)


def bundle_from_json(
    text: str,
) -> tuple[DatabaseSchema, list[Dependency], Database | None]:
    """Parse a bundle; validates shape and dependencies against the schema."""
    return bundle_from_payload(json.loads(text))


def bundle_from_payload(
    payload: Any,
) -> tuple[DatabaseSchema, list[Dependency], Database | None]:
    """Validate an already-decoded bundle payload (what the serving
    layer receives inside a larger request body)."""
    if not isinstance(payload, dict):
        raise ParseError(
            f"bundle must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_BUNDLE_KEYS))
    if unknown:
        raise ParseError(
            f"bundle has unknown top-level key(s) {', '.join(map(repr, unknown))}; "
            f"expected only {', '.join(map(repr, _BUNDLE_KEYS))}"
        )
    if "schema" not in payload:
        raise ParseError("bundle is missing the 'schema' key")
    schema = _schema_from_payload(payload["schema"])
    lines = payload.get("dependencies", [])
    if not isinstance(lines, list):
        raise ParseError(
            f"bundle 'dependencies' must be a list of DSL strings, got "
            f"{type(lines).__name__}"
        )
    dependencies: list[Dependency] = []
    for line in lines:
        if not isinstance(line, str):
            raise ParseError(
                f"dependency entries must be DSL strings, got {line!r}"
            )
        dep = parse_dependency(line)
        dep.validate(schema)
        dependencies.append(dep)
    db = None
    if "database" in payload:
        db = _database_from_payload(schema, payload["database"])
    return schema, dependencies, db


def session_from_json(text: str, **session_options: Any) -> ReasoningSession:
    """Load a bundle directly into a :class:`ReasoningSession`.

    The schema, dependencies, and optional database all land in the
    session; keyword options (budgets) are forwarded to its
    constructor.
    """
    schema, dependencies, db = bundle_from_json(text)
    return ReasoningSession(schema, dependencies, db=db, **session_options)


def dump_bundle(
    fp: TextIO,
    schema: DatabaseSchema,
    dependencies: list[Dependency] | None = None,
    db: Database | None = None,
) -> None:
    fp.write(bundle_to_json(schema, dependencies, db))


def load_bundle(fp: TextIO):
    return bundle_from_json(fp.read())


def load_session(fp: TextIO, **session_options: Any) -> ReasoningSession:
    """File-object variant of :func:`session_from_json`."""
    return session_from_json(fp.read(), **session_options)


# -- bundle patches (the lifecycle on disk) -------------------------------

_PATCH_KEYS = ("add", "retract")


def _patch_section(payload: dict, key: str, schema: DatabaseSchema) -> list[Dependency]:
    lines = payload.get(key, [])
    if not isinstance(lines, list):
        raise ParseError(
            f"patch {key!r} must be a list of DSL strings, got "
            f"{type(lines).__name__}"
        )
    dependencies: list[Dependency] = []
    for line in lines:
        if not isinstance(line, str):
            raise ParseError(
                f"patch {key!r} entries must be DSL strings, got {line!r}"
            )
        dep = parse_dependency(line)
        dep.validate(schema)
        dependencies.append(dep)
    return dependencies


def patch_from_json(
    text: str, schema: DatabaseSchema
) -> tuple[list[Dependency], list[Dependency]]:
    """Parse a patch as ``(additions, retractions)``.

    Validated with the same strictness as bundles: the payload must be
    an object, only ``add``/``retract`` keys are allowed, and every
    entry must parse and be well-formed over ``schema``.
    """
    return patch_from_payload(json.loads(text), schema)


def patch_from_payload(
    payload: Any, schema: DatabaseSchema
) -> tuple[list[Dependency], list[Dependency]]:
    """Validate an already-decoded patch payload (what the serving
    layer's write-ahead log records and replays on recovery)."""
    if not isinstance(payload, dict):
        raise ParseError(
            f"patch must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_PATCH_KEYS))
    if unknown:
        raise ParseError(
            f"patch has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"expected only {', '.join(map(repr, _PATCH_KEYS))}"
        )
    add = _patch_section(payload, "add", schema)
    retract = _patch_section(payload, "retract", schema)
    if not (add or retract):
        raise ParseError("patch is empty: needs an 'add' or 'retract' entry")
    return add, retract


def patch_to_json(
    add: list[Dependency] | None = None,
    retract: list[Dependency] | None = None,
    indent: int = 2,
) -> str:
    """Serialize a patch (DSL strings, human-editable like bundles)."""
    payload: dict[str, list[str]] = {}
    if add:
        payload["add"] = [str(dep) for dep in add]
    if retract:
        payload["retract"] = [str(dep) for dep in retract]
    if not payload:
        raise ParseError("patch is empty: needs an 'add' or 'retract' section")
    return json.dumps(payload, indent=indent)


def load_patch(
    fp: TextIO, schema: DatabaseSchema
) -> tuple[list[Dependency], list[Dependency]]:
    """File-object variant of :func:`patch_from_json`."""
    return patch_from_json(fp.read(), schema)


def apply_patch(session: ReasoningSession, patch: str | dict) -> int:
    """Play a JSON patch into a live session; returns the new version.

    ``patch`` is the JSON text or its decoded object (what the serving
    layer's write-ahead log records).  Retractions are applied before
    additions, so a patch can replace a premise in one file.  Each
    non-empty section is one mutation (one version bump) with the
    session's scoped cache invalidation.
    """
    if isinstance(patch, str):
        patch = json.loads(patch)
    add, retract = patch_from_payload(patch, session.schema)
    if retract:
        session.retract(retract)
    if add:
        session.add(add)
    return session.version
