"""Fixtures shared by the serving tests."""

import contextlib

import pytest

from repro.serve import ServeClient


@pytest.fixture
def make_client():
    """``make_client(**options)`` builds a :class:`ServeClient`; every
    client it built is closed when the test ends, pass or fail."""
    with contextlib.ExitStack() as stack:
        yield lambda **options: stack.enter_context(ServeClient(**options))
