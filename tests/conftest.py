"""Shared fixtures."""
from __future__ import annotations

import concurrent.futures

import pytest

from leodoppler import montecarlo


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace run_scenario's thread pool with one that runs tasks inline.

    Returns the list of max_workers values the pools were created with, so
    a test can check how many threads would have started without starting
    any.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return list(map(fn, *iterables))

    # run_scenario imports the pool class from concurrent.futures when it
    # needs one, so the class is replaced there.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    return sizes


@pytest.fixture
def no_sampling(monkeypatch):
    """Make any attempt to draw Monte Carlo samples fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("validation should have failed before sampling")

    monkeypatch.setattr(montecarlo, "_count_chunks", refuse)
