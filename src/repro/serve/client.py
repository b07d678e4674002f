"""The serving client: synchronous framed calls to a running daemon.

Addresses are strings: a filesystem path (Unix socket) or
``tcp:HOST:PORT`` — exactly what the daemon prints as ``serving on
<address>`` at startup.  One client holds one connection and issues one
request at a time; concurrency tests simply open one client per thread.

Failure semantics (DESIGN §15).  With ``retries=0`` (the default) a
call is one attempt: any connection failure closes and discards the
socket — the next call reconnects instead of deadlocking on a desynced
frame stream — and raises :class:`ServeError`.  With ``retries > 0``
the client becomes self-healing:

* a retry is the same request sent again: if its first attempt
  completed ``ok`` before the connection dropped, the daemon answers it
  from its completed-work store by the request's work fingerprint,
  without running it again;
* connection failures reconnect and retry under **capped exponential
  backoff with jitter**, bounded by both the attempt budget and an
  optional per-call overall ``call_deadline``;
* retryable refusals (``rejected``/``overloaded`` — the daemon never
  started the work) are retried the same way; execution outcomes are
  final and returned as-is.
"""

import random
import socket
import time

from repro.serve.protocol import (
    RETRYABLE_STATUSES,
    recv_message,
    send_message,
)


class ServeError(ConnectionError):
    """The daemon is unreachable or hung up mid-request."""


def parse_address(address):
    """``(family, connect_arg)`` for an address string."""
    if address.startswith("tcp:"):
        host, _, port = address[len("tcp:") :].rpartition(":")
        return socket.AF_INET, (host or "127.0.0.1", int(port))
    return socket.AF_UNIX, address


def connect(address, timeout=None):
    """One connected blocking socket to the daemon."""
    family, target = parse_address(address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(target)
    except OSError as exc:
        sock.close()
        raise ServeError("cannot reach daemon at %s: %s" % (address, exc))
    return sock


#: Ops whose calls may be transparently retried.  ``shutdown`` is
#: excluded — retrying it against a freshly restarted daemon would turn
#: one intended stop into a kill loop.
RETRYABLE_OPS = ("infer", "check", "ping", "health", "stats")


class ServeClient:
    """One connection, synchronous request/response, optional retries.

    ``retries`` is the number of *additional* attempts after the first;
    ``0`` preserves the historical single-shot semantics.  ``timeout``
    is the per-attempt socket timeout; ``call_deadline`` (seconds,
    ``0`` = none) bounds one logical call across all of its retries and
    backoff sleeps.
    """

    def __init__(
        self,
        address,
        timeout=None,
        retries=0,
        backoff=0.05,
        backoff_max=2.0,
        call_deadline=0.0,
    ):
        self.address = address
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.001, float(backoff))
        self.backoff_max = max(self.backoff, float(backoff_max))
        self.call_deadline = max(0.0, float(call_deadline))
        self._sock = None
        if self.retries == 0:
            # Historical behaviour: constructing a client for an absent
            # daemon raises immediately.  A retrying client connects
            # lazily — its first call handles an absent daemon anyway.
            self._ensure_connected()

    # -- connection lifecycle --------------------------------------------------

    def _ensure_connected(self):
        if self._sock is None:
            self._sock = connect(self.address, timeout=self.timeout)
        return self._sock

    def _discard_connection(self):
        """Drop a connection that can no longer be trusted.

        After a send/recv error the frame stream is in an undefined
        half-sent state; reusing it would desync every later call.
        Closing and nulling makes the next call reconnect cleanly."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    @property
    def connected(self):
        return self._sock is not None

    def close(self):
        self._discard_connection()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- the call path ---------------------------------------------------------

    def call(self, request):
        """Send one request dict, block for its response.

        Single attempt when ``retries == 0``; otherwise the retrying
        path (backoff, deadline)."""
        if self.retries == 0 or request.get("op") not in RETRYABLE_OPS:
            return self._call_once(request)
        return self._call_retrying(request)

    def _call_once(self, request):
        try:
            sock = self._ensure_connected()
            send_message(sock, request)
            return recv_message(sock)
        except (OSError, ConnectionError) as exc:
            self._discard_connection()
            if isinstance(exc, ServeError):
                raise
            raise ServeError(
                "daemon at %s hung up: %s" % (self.address, exc)
            )

    def _call_retrying(self, request):
        deadline_at = (
            time.monotonic() + self.call_deadline
            if self.call_deadline
            else None
        )
        attempts = self.retries + 1
        last_error = None
        response = None
        for attempt in range(attempts):
            if attempt:
                self._sleep_backoff(attempt, deadline_at)
            if deadline_at is not None and time.monotonic() >= deadline_at:
                break
            try:
                response = self._call_once(request)
            except ServeError as exc:
                last_error = exc
                continue
            if response.get("status") in RETRYABLE_STATUSES:
                # The daemon is alive but refused admission; nothing
                # executed, so backing off and re-asking is safe.
                last_error = None
                continue
            return response
        if response is not None and last_error is None:
            # Retries exhausted on retryable refusals: surface the
            # daemon's last word rather than inventing an exception.
            return response
        if deadline_at is not None and time.monotonic() >= deadline_at:
            raise ServeError(
                "call deadline of %.3fs exceeded after %d attempt(s) "
                "against %s (%s)"
                % (
                    self.call_deadline,
                    attempt + 1,
                    self.address,
                    last_error,
                )
            )
        raise ServeError(
            "daemon at %s unreachable after %d attempt(s): %s"
            % (self.address, attempts, last_error)
        )

    def _sleep_backoff(self, attempt, deadline_at):
        """Capped exponential backoff with decorrelating jitter."""
        base = min(self.backoff * (2.0 ** (attempt - 1)), self.backoff_max)
        delay = base * (0.5 + random.random() * 0.5)
        if deadline_at is not None:
            delay = min(delay, max(deadline_at - time.monotonic(), 0.0))
        if delay > 0:
            time.sleep(delay)

    # -- op helpers ------------------------------------------------------------

    def ping(self):
        return self.call({"op": "ping"})

    def health(self):
        return self.call({"op": "health"})

    def stats(self):
        return self.call({"op": "stats"})

    def shutdown(self):
        return self.call({"op": "shutdown"})

    def infer(self, sources, **knobs):
        request = {"op": "infer", "sources": list(sources)}
        request.update(knobs)
        return self.call(request)

    def check(self, sources, **knobs):
        request = {"op": "check", "sources": list(sources)}
        request.update(knobs)
        return self.call(request)


def wait_for_server(
    address, timeout=10.0, interval=0.05, connect_timeout=0.5
):
    """Poll until the daemon answers a ping (daemon boot in tests/CLI).

    ``connect_timeout`` bounds each probe attempt on its own — it is
    deliberately *not* derived from the polling ``interval``, which only
    paces the probes.  Returns the ping response; raises
    :class:`ServeError` naming the attempts made on timeout.
    """
    deadline = time.monotonic() + timeout
    last_error = None
    attempts = 0
    while time.monotonic() < deadline:
        attempts += 1
        try:
            with ServeClient(address, timeout=connect_timeout) as client:
                return client.ping()
        except (ServeError, OSError) as exc:
            last_error = exc
            time.sleep(interval)
    raise ServeError(
        "no daemon at %s after %.1fs and %d attempt(s) (%s)"
        % (address, timeout, attempts, last_error)
    )
