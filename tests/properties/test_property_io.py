"""Round-trip properties of the JSON bundle format."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import bundle_from_json, bundle_to_json, session_from_json
from tests.properties.strategies import databases, fds, inds, schemas


@st.composite
def bundles(draw):
    """A coherent (schema, dependencies, database) triple."""
    db_schema = draw(schemas())
    count = draw(st.integers(0, 6))
    deps = []
    for _ in range(count):
        dep = draw(st.one_of(inds(db_schema), fds(db_schema)))
        deps.append(dep)
    db = draw(st.one_of(st.none(), databases(db_schema)))
    return db_schema, deps, db


class TestBundleRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(bundles())
    def test_schema_survives(self, bundle):
        schema, deps, db = bundle
        schema2, _deps2, _db2 = bundle_from_json(bundle_to_json(schema, deps, db))
        assert schema2 == schema

    @settings(max_examples=60, deadline=None)
    @given(bundles())
    def test_dependencies_survive_as_sets(self, bundle):
        schema, deps, db = bundle
        _schema2, deps2, _db2 = bundle_from_json(bundle_to_json(schema, deps, db))
        assert set(deps2) == set(deps)

    @settings(max_examples=60, deadline=None)
    @given(bundles())
    def test_database_survives(self, bundle):
        schema, deps, db = bundle
        _schema2, _deps2, db2 = bundle_from_json(bundle_to_json(schema, deps, db))
        if db is None:
            assert db2 is None
        else:
            assert db2 == db

    @settings(max_examples=30, deadline=None)
    @given(bundles())
    def test_double_round_trip_is_stable(self, bundle):
        schema, deps, db = bundle
        once = bundle_to_json(*bundle_from_json(bundle_to_json(schema, deps, db)))
        twice = bundle_to_json(*bundle_from_json(once))
        assert once == twice


class TestSessionRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(bundles())
    def test_bundle_loads_into_session(self, bundle):
        schema, deps, db = bundle
        session = session_from_json(bundle_to_json(schema, deps, db))
        assert session.schema == schema
        assert set(session.dependencies) == set(deps)
        assert (session.db is None) == (db is None)

    @settings(max_examples=30, deadline=None)
    @given(bundles())
    def test_session_premise_buckets_partition_the_premises(self, bundle):
        schema, deps, db = bundle
        session = session_from_json(bundle_to_json(schema, deps, db))
        bucketed = len(session.index.ind_kernels)
        assert bucketed == len(session.index.inds)
        bucketed_fds = sum(
            len(b) for b in session.index.fds_by_relation.values()
        )
        assert bucketed_fds == len(session.index.fds)
