import signal
from contextlib import contextmanager

import pytest


class Overran(Exception):
    """Raised inside a `deadline` block that is still running when its time is up."""


@pytest.fixture
def deadline():
    """`with deadline(s):` interrupts its block with Overran after s seconds.

    A refusal that should come at once fails the test this way instead of
    hanging the suite when the refusal is missing.
    """

    @contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            raise Overran(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
