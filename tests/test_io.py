"""JSON bundle serialization."""

import json

import pytest

from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.exceptions import DependencyError, ParseError
from repro.io import (
    apply_patch,
    bundle_from_json,
    bundle_to_json,
    database_to_dict,
    patch_from_json,
    patch_to_json,
    schema_from_dict,
    schema_to_dict,
)
from repro.model.builders import database
from repro.model.schema import DatabaseSchema
from repro.workloads.schemas import library_dependencies, library_schema


class TestSchemaRoundtrip:
    def test_roundtrip(self):
        schema = library_schema()
        assert schema_from_dict(schema_to_dict(schema)) == schema


class TestBundleRoundtrip:
    def test_full_bundle(self):
        schema = library_schema()
        deps = library_dependencies()
        db = database(
            schema,
            {"BOOK": [("isbn1", "Title", "Author")], "MEMBER": [("m1", "Ann")]},
        )
        text = bundle_to_json(schema, deps, db)
        schema2, deps2, db2 = bundle_from_json(text)
        assert schema2 == schema
        assert set(deps2) == set(deps)
        assert db2 == db

    def test_bundle_without_database(self):
        schema = library_schema()
        text = bundle_to_json(schema, library_dependencies())
        _schema, deps, db = bundle_from_json(text)
        assert db is None
        assert len(deps) == len(library_dependencies())

    def test_dependencies_validated_on_load(self):
        text = json.dumps(
            {"schema": {"R": ["A"]}, "dependencies": ["R[Z] <= R[A]"]}
        )
        with pytest.raises(DependencyError):
            bundle_from_json(text)

    def test_missing_schema_rejected(self):
        with pytest.raises(ParseError):
            bundle_from_json(json.dumps({"dependencies": []}))

    def test_database_rows_ordered_deterministically(self):
        schema = DatabaseSchema.from_dict({"R": ("A",)})
        db = database(schema, {"R": [(2,), (1,)]})
        assert database_to_dict(db) == {"R": [[1], [2]]}

    def test_dsl_dependencies_survive(self):
        schema = DatabaseSchema.from_dict({"R": ("A", "B"), "S": ("C", "D")})
        deps = [IND("R", ("A", "B"), "S", ("C", "D")), FD("R", ("A",), ("B",))]
        _s, parsed, _db = bundle_from_json(bundle_to_json(schema, deps))
        assert set(parsed) == set(deps)


class TestBundleValidation:
    def test_unknown_top_level_key_rejected(self):
        text = json.dumps({"schema": {"R": ["A"]}, "shcema_typo": {}})
        with pytest.raises(ParseError, match="shcema_typo"):
            bundle_from_json(text)

    def test_non_object_bundle_rejected(self):
        with pytest.raises(ParseError, match="JSON object"):
            bundle_from_json(json.dumps(["not", "a", "bundle"]))

    def test_dependencies_must_be_a_list(self):
        text = json.dumps({"schema": {"R": ["A"]}, "dependencies": "R[A] <= R[A]"})
        with pytest.raises(ParseError, match="list"):
            bundle_from_json(text)

    def test_dependency_entries_must_be_strings(self):
        text = json.dumps({"schema": {"R": ["A"]}, "dependencies": [42]})
        with pytest.raises(ParseError, match="42"):
            bundle_from_json(text)

    def test_database_row_arity_mismatch_names_relation_and_row(self):
        text = json.dumps(
            {"schema": {"R": ["A", "B"]}, "database": {"R": [[1, 2], [3]]}}
        )
        with pytest.raises(ParseError) as excinfo:
            bundle_from_json(text)
        message = str(excinfo.value)
        assert "'R'" in message and "row 1" in message and "[3]" in message

    @pytest.mark.parametrize("cell", [{"x": 1}, [1, 2]], ids=["object", "array"])
    def test_database_cell_must_be_a_scalar(self, cell):
        text = json.dumps(
            {"schema": {"R": ["A", "B"]}, "database": {"R": [[1, 2], [3, cell]]}}
        )
        with pytest.raises(ParseError) as excinfo:
            bundle_from_json(text)
        message = str(excinfo.value)
        assert "'R'" in message and "row 1" in message and repr(cell) in message

    def test_database_scalar_cells_load(self):
        text = json.dumps({"schema": {"R": ["A", "B", "C", "D"]},
                           "database": {"R": [["s", 1, 2.5, None]]}})
        _schema, _deps, db = bundle_from_json(text)
        assert db.total_tuples() == 1

    def test_database_unknown_relation_rejected(self):
        text = json.dumps({"schema": {"R": ["A"]}, "database": {"Q": [[1]]}})
        with pytest.raises(ParseError, match="'Q'"):
            bundle_from_json(text)

    def test_database_row_must_be_an_array(self):
        text = json.dumps({"schema": {"R": ["A"]}, "database": {"R": ["scalar"]}})
        with pytest.raises(ParseError, match="row 0"):
            bundle_from_json(text)

    def test_database_section_must_be_an_object(self):
        text = json.dumps({"schema": {"R": ["A"]}, "database": [[1]]})
        with pytest.raises(ParseError, match="database"):
            bundle_from_json(text)

    def test_schema_section_must_be_an_object(self):
        with pytest.raises(ParseError, match="schema"):
            bundle_from_json(json.dumps({"schema": ["R"]}))

    def test_schema_attributes_must_be_a_list(self):
        # A bare string would be iterated character by character.
        with pytest.raises(ParseError, match="'AB'"):
            bundle_from_json(json.dumps({"schema": {"R": "AB"}}))

    def test_schema_attributes_must_be_strings(self):
        with pytest.raises(ParseError, match="'R'"):
            bundle_from_json(json.dumps({"schema": {"R": [1, 2]}}))


class TestPatchFormat:
    SCHEMA = DatabaseSchema.from_dict({"R": ("A", "B"), "S": ("A", "B")})

    def test_round_trip(self):
        add = [IND("R", ("A",), "S", ("A",))]
        retract = [FD("R", "A", "B")]
        text = patch_to_json(add=add, retract=retract)
        add2, retract2 = patch_from_json(text, self.SCHEMA)
        assert add2 == add and retract2 == retract

    def test_sections_are_optional(self):
        add, retract = patch_from_json(
            json.dumps({"add": ["R[A] <= S[A]"]}), self.SCHEMA
        )
        assert len(add) == 1 and retract == []

    def test_empty_patch_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            patch_from_json(json.dumps({}), self.SCHEMA)
        with pytest.raises(ParseError, match="empty"):
            patch_from_json(json.dumps({"add": [], "retract": []}), self.SCHEMA)
        with pytest.raises(ParseError, match="empty"):
            patch_to_json()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError, match="'remove'"):
            patch_from_json(
                json.dumps({"remove": ["R[A] <= S[A]"]}), self.SCHEMA
            )

    def test_entries_validated_against_the_schema(self):
        with pytest.raises(DependencyError):
            patch_from_json(json.dumps({"add": ["R[Z] <= S[Z]"]}), self.SCHEMA)

    def test_entries_must_be_strings(self):
        with pytest.raises(ParseError, match="DSL strings"):
            patch_from_json(json.dumps({"add": [42]}), self.SCHEMA)

    def test_payload_must_be_an_object(self):
        with pytest.raises(ParseError, match="object"):
            patch_from_json(json.dumps(["R[A] <= S[A]"]), self.SCHEMA)

    def test_apply_patch_retracts_then_adds(self):
        from repro.engine import ReasoningSession

        session = ReasoningSession(self.SCHEMA, [FD("R", "A", "B")])
        version = apply_patch(
            session,
            json.dumps({"retract": ["R: A -> B"], "add": ["R[A] <= S[A]"]}),
        )
        assert version == session.version == 2
        assert session.dependencies == (IND("R", ("A",), "S", ("A",)),)


class TestDiscoveryOutputRoundtrip:
    """Discovery output flows back through the io layer losslessly."""

    def _report(self):
        from repro.discovery import discover

        db = database(
            {"R": ("A", "B"), "S": ("A", "B")},
            {
                "R": [(1, 10), (2, 20)],
                "S": [(1, 10), (2, 20), (3, 30)],
            },
        )
        return db, discover(db)

    def test_report_json_round_trips_through_json(self):
        _db, report = self._report()
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["schema"] == {"R": ["A", "B"], "S": ["A", "B"]}
        assert set(payload["cover"]) <= set(payload["fds"] + payload["inds"])
        assert payload["reduced"] is True
        totals = payload["totals"]
        assert totals["validated"] > 0
        for phase in payload["phases"].values():
            assert set(phase) >= {
                "candidates_generated",
                "pruned_by_implication",
                "validated",
                "rows_scanned",
                "found",
            }

    def test_cover_bundle_loads_into_a_session(self):
        from repro.io import session_from_json

        db, report = self._report()
        session = session_from_json(report.bundle_json())
        assert session.schema == db.schema
        assert set(session.dependencies) == set(report.cover)
        # The reloaded session answers like the discovering one.
        assert session.implies("R[A] <= S[A]").verdict

    def test_cover_bundle_with_database_checks_clean(self):
        from repro.io import session_from_json

        db, report = self._report()
        text = bundle_to_json(db.schema, list(report.cover), db)
        session = session_from_json(text)
        assert session.db == db
        assert session.check().ok

    def test_discovered_deps_survive_the_dsl_round_trip(self):
        from repro.deps.parser import parse_dependency

        _db, report = self._report()
        for dep in report.dependencies:
            assert parse_dependency(str(dep)) == dep
