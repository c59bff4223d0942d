"""Shared fixtures."""
from __future__ import annotations

import numpy as np
import pytest

from leodoppler import montecarlo
from leodoppler.distributions import _magnitude_at_distance


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


@pytest.fixture(scope="session")
def batch_magnitudes():
    """Run montecarlo._batch_magnitudes on rows of its own.

    Returns a function of (scenario, u_radius, u_angle) that gives copies
    of the exact magnitudes, each user's own distance to the sub-satellite
    point and the envelope magnitudes, and the visibility mask. The draws
    are overwritten.
    """

    def run(sc, u_radius, u_angle):
        work = np.empty((4, u_radius.size))
        visible = montecarlo._batch_magnitudes(sc, u_radius, u_angle, work)
        exact, own_distance = work[0].copy(), work[2].copy()
        return exact, own_distance, _magnitude_at_distance(own_distance, sc.law), visible

    return run
