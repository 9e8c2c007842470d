"""Shared fixtures for the paper benchmarks.

Each of ``test_e01``-``test_e14`` regenerates one of the paper's
artifacts.  Benchmarks double as correctness checks: every timed
operation asserts the paper's claim on its result, so
``pytest benchmarks/ --benchmark-only`` re-establishes the paper while
measuring it.
"""

from __future__ import annotations

import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    return random.Random(19841982)
