"""Shared fixtures for the distributed suite: worker modes and a deadline guard.

Worker modes: ``"inproc"`` (in-process shard states) and the two connection
modes of the one process wire — ``"local"`` (workers forked over a
``socketpair``) and ``"agent"`` (workers behind dialled
:class:`~repro.distributed.NodeAgent` endpoints).  :func:`mode_kwargs` turns
a mode name into pool/matrix keyword arguments; the mode name is embedded in
every parametrized test id.

The fault-injection contract (PR 4) is that a dead worker surfaces as
:class:`~repro.distributed.WorkerCrash` *instead of a hang* — so a regression
in that contract would, by definition, hang the test.  Every test in this
directory therefore runs under a SIGALRM deadline: a deadlocked test fails
with a :class:`TimeoutError` and a traceback pointing at the blocked wait,
rather than stalling CI until the job-level timeout kills it with no
diagnostics.  Fault tests additionally use :func:`deadline` with a tight
bound around the specific wait under test.
"""

from __future__ import annotations

import contextlib
import signal
import threading

import pytest

from repro.distributed import spawn_local_agents

#: The connection modes of the process wire.
PROCESS_MODES = ["local", "agent"]

#: Lazily spawned localhost NodeAgent pair serving every ``"agent"``-mode test
#: that kills only *workers* (the agents survive those tests; node-kill tests
#: spawn their own disposable agents).  Torn down at session end.
_AGENT_STACK = contextlib.ExitStack()
_AGENT_ADDRESSES: list = []


def agent_nodes():
    if not _AGENT_ADDRESSES:
        addresses, _procs = _AGENT_STACK.enter_context(spawn_local_agents(2))
        _AGENT_ADDRESSES.extend(addresses)
    return list(_AGENT_ADDRESSES)


@pytest.fixture(scope="session", autouse=True)
def _agent_teardown():
    yield
    _AGENT_STACK.close()
    _AGENT_ADDRESSES.clear()


def mode_kwargs(mode, **extra):
    """Pool / sharded-matrix keyword arguments for one worker mode."""
    if mode == "inproc":
        return {"use_processes": False, **extra}
    kwargs = {"use_processes": True, **extra}
    if mode == "agent":
        kwargs["nodes"] = agent_nodes()
    return kwargs


#: Generous per-test ceiling; any distributed test that takes this long is
#: deadlocked, not slow.
SUITE_DEADLINE_SECONDS = 120.0


def _guard_available() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`TimeoutError` in the calling thread after ``seconds``.

    SIGALRM-based (POSIX main thread only; a no-op elsewhere), so it fires
    even while the test is blocked inside an uninterruptible-by-pytest wait
    such as ``Queue.get()`` — which is exactly where a transport regression
    would deadlock.  Nestable: the previous handler and timer are restored on
    exit.
    """
    if not _guard_available():
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds:g}s deadline (deadlock guard)"
        )

    previous_handler = signal.signal(signal.SIGALRM, _timed_out)
    previous_delay, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, previous_delay)
        signal.signal(signal.SIGALRM, previous_handler)


@pytest.fixture(autouse=True)
def _hang_guard():
    """Fail any distributed test that blocks past the suite-wide deadline."""
    with deadline(SUITE_DEADLINE_SECONDS):
        yield
