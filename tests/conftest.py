"""A per-test time limit, so a hang fails its own test instead of stalling
the whole suite.  The slowest test takes about 2 s, most of it the unpruned
oracle walk to 60 that the pruned brute-force walk is checked against.
``walks`` logs the brute-force walks a test makes."""

import signal

import pytest

from core3 import partitions

TIME_LIMIT_S = 60


@pytest.fixture
def walks(monkeypatch):
    """The (n, t) of every partition walk from here on."""
    log = []
    walk = partitions._walk
    monkeypatch.setattr(partitions, "_walk", lambda n, t: log.append((n, t)) or walk(n, t))
    return log


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "SIGALRM"):  # no alarm signal on this platform
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
