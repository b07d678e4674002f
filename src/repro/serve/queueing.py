"""The daemon's bounded request queue.

Admission control lives here: a full queue rejects at the door (the
requester gets a ``rejected`` response immediately instead of unbounded
latency), and the dispatcher pulls *batches* — the first waiter plus
whatever else arrives inside the batching window — so concurrent
requests are planned together (:mod:`repro.serve.batching`) instead of
trickling through one by one.
"""

import threading
import time
from collections import deque
from dataclasses import dataclass, field


@dataclass
class PendingRequest:
    """One admitted request, parked until a dispatch wave takes it."""

    #: The normalized request payload (:func:`normalize_request` output).
    request: dict
    #: The connection to respond on (an opaque handle owned by the server).
    connection: object
    #: Server-assigned monotonically increasing id.
    request_id: int
    #: The request's work fingerprint (coalescing key).
    fingerprint: str
    #: ``perf_counter`` timestamp at admission.
    arrival: float = field(default_factory=time.perf_counter)
    #: Absolute ``perf_counter`` deadline, or None (no deadline).
    deadline_at: float = None

    def expired(self, now=None):
        if self.deadline_at is None:
            return False
        return (now if now is not None else time.perf_counter()) > self.deadline_at

    def queue_wait(self, now=None):
        return (now if now is not None else time.perf_counter()) - self.arrival


@dataclass
class QueueMetrics:
    """Counter movement of the queue since daemon start."""

    enqueued: int = 0
    rejected: int = 0
    dispatched: int = 0
    max_depth: int = 0
    #: Requests whose deadline expired while still queued; they are
    #: answered ``expired`` by the dispatcher and never reach a worker.
    evicted: int = 0
    #: Total seconds requests spent queued (divide by dispatched for the
    #: mean wait).
    wait_seconds: float = 0.0

    def to_payload(self):
        return {
            "enqueued": self.enqueued,
            "rejected": self.rejected,
            "dispatched": self.dispatched,
            "max_depth": self.max_depth,
            "evicted": self.evicted,
            "wait_seconds": self.wait_seconds,
        }


class BoundedRequestQueue:
    """A FIFO of :class:`PendingRequest` with a hard depth limit."""

    def __init__(self, limit=64):
        if limit < 1:
            raise ValueError("queue limit must be >= 1, got %d" % limit)
        self.limit = limit
        self.metrics = QueueMetrics()
        self._items = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def depth(self):
        with self._lock:
            return len(self._items)

    def put(self, pending):
        """Admit one request; False when the queue is full or closed."""
        with self._not_empty:
            if self._closed or len(self._items) >= self.limit:
                self.metrics.rejected += 1
                return False
            self._items.append(pending)
            self.metrics.enqueued += 1
            self.metrics.max_depth = max(
                self.metrics.max_depth, len(self._items)
            )
            self._not_empty.notify()
            return True

    def close(self):
        """Stop admitting; waiters wake and drain what is already queued."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def evict_expired(self, now=None):
        """Remove and return every queued request whose deadline has
        already passed.

        The dispatcher calls this before pulling a batch, so a request
        that died of old age *in the queue* is answered ``expired``
        directly and costs zero worker time — under overload this is
        what keeps workers from burning their cycles on responses nobody
        is still waiting for.
        """
        if now is None:
            now = time.perf_counter()
        evicted = []
        with self._lock:
            if not self._items:
                return evicted
            keep = deque()
            for pending in self._items:
                if pending.expired(now):
                    evicted.append(pending)
                else:
                    keep.append(pending)
            if evicted:
                self._items = keep
                self.metrics.evicted += len(evicted)
        return evicted

    def get_batch(self, max_size, window, timeout=0.1):
        """Pull the next dispatch batch.

        Blocks up to ``timeout`` for a first request; once one is in
        hand, keeps collecting until the queue momentarily empties, the
        batching ``window`` (seconds) elapses, or ``max_size`` is
        reached.  Returns a possibly-empty list — an empty list means
        "nothing arrived; check for shutdown and call again", which
        keeps the dispatcher responsive to drains without busy-waiting.
        """
        batch = []
        with self._not_empty:
            if not self._items:
                self._not_empty.wait(timeout)
            if not self._items:
                return batch
            batch.append(self._items.popleft())
            deadline = time.perf_counter() + max(window, 0.0)
            while len(batch) < max_size:
                if self._items:
                    batch.append(self._items.popleft())
                    continue
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or self._closed:
                    break
                self._not_empty.wait(remaining)
                if not self._items:
                    break
            now = time.perf_counter()
            self.metrics.dispatched += len(batch)
            self.metrics.wait_seconds += sum(
                pending.queue_wait(now) for pending in batch
            )
        return batch
