"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.model.schema import DatabaseSchema, RelationSchema


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running test (no CI step selects on it)"
    )


@pytest.fixture
def rs_ab() -> RelationSchema:
    """A two-attribute relation scheme R[A,B]."""
    return RelationSchema("R", ("A", "B"))


@pytest.fixture
def rs_abc() -> RelationSchema:
    """A three-attribute relation scheme R[A,B,C]."""
    return RelationSchema("R", ("A", "B", "C"))


@pytest.fixture
def two_relation_schema() -> DatabaseSchema:
    """R[A,B,C] and S[D,E,F]."""
    return DatabaseSchema.of(
        RelationSchema("R", ("A", "B", "C")),
        RelationSchema("S", ("D", "E", "F")),
    )


@pytest.fixture
def three_relation_schema() -> DatabaseSchema:
    """R[A,B,C], S[D,E,F], T[G,H,I]."""
    return DatabaseSchema.of(
        RelationSchema("R", ("A", "B", "C")),
        RelationSchema("S", ("D", "E", "F")),
        RelationSchema("T", ("G", "H", "I")),
    )


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for reproducible randomized tests."""
    return random.Random(20260608)
