"""Stopping a cached run between two visits.

Every visit of a run with a bound analysis cache is a pure function of
its fingerprinted inputs, and its outcome is written to the
content-addressed store as soon as it is solved.  A stopped (or killed)
run therefore needs no state of its own: running the same command again
against the same cache replays every stored visit and solves on from
the first missing one, bit-identically (DESIGN §11).

This module holds what stops such a run: the stop request, set by the
SIGTERM/SIGINT handler that :func:`stoppable_visits` installs under
:func:`graceful_shutdown` (or by :func:`request_shutdown`) and read by
:class:`repro.core.infer.AnekInference` after every visit and once
after its visit loop, and :class:`RunInterrupted`, which the CLI maps
to exit code 5.  Only the visit loop waits for a signal: before it
(parse, set-up) and after it (extract, apply,
check) SIGTERM and SIGINT act at once, as they do without the cache.
"""

import signal
import threading
from contextlib import contextmanager


class RunInterrupted(Exception):
    """A stop request or the RSS budget stopped a cached run between two
    visits; rerunning the same command continues it from the cache.

    Carries the failure ledger as it stood at the stop.
    """

    def __init__(self, message, failures):
        self.failures = failures
        super().__init__(message)


_SHUTDOWN = threading.Event()
#: Set by :func:`graceful_shutdown`: a visit loop may wait for a signal.
_GRACEFUL = threading.Event()


def shutdown_requested():
    """True once SIGTERM/SIGINT (or :func:`request_shutdown`) arrived."""
    return _SHUTDOWN.is_set()


def request_shutdown():
    """Programmatic stop request (tests, embedding applications)."""
    _SHUTDOWN.set()


def clear_shutdown():
    _SHUTDOWN.clear()


@contextmanager
def graceful_shutdown():
    """Let SIGTERM/SIGINT stop this process's cached run between two
    visits, for the duration; the stop request is cleared on exit.

    The handlers are installed only while the visit loop runs
    (:func:`stoppable_visits`); everywhere else the signals keep their
    previous handling.
    """
    _GRACEFUL.set()
    try:
        yield
    finally:
        _GRACEFUL.clear()
        _SHUTDOWN.clear()


@contextmanager
def stoppable_visits():
    """The visit loop of a cached run.

    Under :func:`graceful_shutdown`, in the main thread, the first
    SIGTERM/SIGINT sets the stop request: the run finishes the visit in
    flight and raises :class:`RunInterrupted` after it.  A second signal
    raises ``KeyboardInterrupt`` at once.  On exit the previous handlers
    come back, so a signal after the loop acts at once.  Anywhere else
    this is a no-op context.
    """
    if (
        not _GRACEFUL.is_set()
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def handler(signum, frame):
        if _SHUTDOWN.is_set():
            raise KeyboardInterrupt
        _SHUTDOWN.set()

    previous = {
        signum: signal.signal(signum, handler)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
