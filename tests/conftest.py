"""Shared fixtures."""
from __future__ import annotations

import pytest

from leodoppler import montecarlo


@pytest.fixture
def started_threads(monkeypatch):
    """Replace the threads run_scenario starts with ones that run inline.

    Returns the list of threads started, so a test can check how many
    would have run without starting any.
    """
    started = []

    class InlineThread:
        def __init__(self, target, args):
            self._target, self._args = target, args

        def start(self):
            started.append(self)
            self._target(*self._args)

        def join(self):
            pass

    monkeypatch.setattr(montecarlo, "Thread", InlineThread)
    return started


@pytest.fixture
def no_sampling(monkeypatch):
    """Make any attempt to draw Monte Carlo samples fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("validation should have failed before sampling")

    monkeypatch.setattr(montecarlo, "_uniform_batches", refuse)
