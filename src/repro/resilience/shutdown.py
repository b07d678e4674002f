"""Stopping a cached run between two visits.

Every visit of a run with a bound analysis cache is a pure function of
its fingerprinted inputs, and its outcome is written to the
content-addressed store as soon as it is solved.  A stopped (or killed)
run therefore needs no state of its own: running the same command again
against the same cache replays every stored visit and solves on from
the first missing one, bit-identically (DESIGN §11).

This module holds what stops such a run: the stop request, set by the
SIGTERM/SIGINT handler of :func:`graceful_shutdown` (or by
:func:`request_shutdown`) and read by
:class:`repro.core.infer.AnekInference` after every visit, and
:class:`RunInterrupted`, which the CLI maps to exit code 5.
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
    """Install SIGTERM/SIGINT → stop at the next visit for the duration.

    The first signal sets the stop request: the run finishes the visit
    in flight and raises :class:`RunInterrupted` after it.  A second
    signal raises ``KeyboardInterrupt`` immediately.  The request is
    cleared on exit.  Outside the main thread (or on platforms without
    signals) this is a no-op context.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def handler(signum, frame):
        if _SHUTDOWN.is_set():
            raise KeyboardInterrupt
        _SHUTDOWN.set()

    previous = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, handler)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        yield
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):  # pragma: no cover
                pass
        _SHUTDOWN.clear()
