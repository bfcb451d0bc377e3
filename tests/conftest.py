import errno
import multiprocessing
import os

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(autouse=True)
def no_live_child_process():
    """Fail a test that leaves a child process running, and end the child."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"the test left child processes running: {left}"


@pytest.fixture
def two_cpus(monkeypatch):
    """An affinity mask of two CPUs, whatever the machine's, for the producer rule."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def failing_fork(monkeypatch):
    """``os.fork`` fails with EAGAIN, as at a pids limit; the list of its calls."""
    calls = []

    def fork():
        calls.append(None)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork, raising=False)
    return calls


@pytest.fixture
def no_fork(monkeypatch):
    """A platform without the ``fork`` start method: asking for its context raises ValueError."""
    get_context = multiprocessing.get_context

    def without_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", without_fork)


def random_grid_fn(rng, grid):
    u = rng.standard_normal(grid.M + 1)
    u[0] = u[-1] = 0.0
    return u
