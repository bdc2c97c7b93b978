"""Fixtures shared by the test modules."""

import contextlib
import signal

import pytest


@pytest.fixture
def within():
    """within(seconds) is a context whose body raises TimeoutError once it
    has run that long, so that a walk gone exponential fails the test
    instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError("time limit exceeded")

    @contextlib.contextmanager
    def limit(seconds):
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
