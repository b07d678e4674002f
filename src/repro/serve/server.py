"""The ``repro serve`` daemon: analysis as a persistent service.

One process keeps everything that makes a cold CLI run slow — the
imported toolchain, the content-addressed :class:`AnalysisCache` on a
shared directory, warm-started full-run restores — alive across
requests, and serves concurrent ``infer``/``check`` requests over a
local socket.

Threading model (three kinds of thread, no shared mutable analysis
state):

* the **front end** runs a ``selectors`` loop over *blocking* sockets,
  using readiness only to decide whom to ``recv`` from; it frames,
  validates, and either answers control ops inline (``ping``,
  ``stats``, ``shutdown``) or admits work into the
  :class:`BoundedRequestQueue`.
* the **dispatcher** pulls batches from the queue, plans them
  (:func:`plan_batch` — coalesce identical work, run distinct work
  concurrently), and submits one worker task per group.  Waves are
  synchronous: the dispatcher joins a wave before pulling the next
  batch, which makes "drain in-flight work then stop" a two-line
  shutdown path.
* **workers** (a warm ``ThreadPoolExecutor``) each run one group:
  re-materialize the program from sources (never shared — the applier
  mutates the AST), run the exact :class:`AnekPipeline` the CLI runs,
  and fan the canonical result out to every coalesced member.

Determinism: a served request executes the same pipeline with the same
settings as ``python -m repro infer``, and results travel as
:meth:`PipelineResult.canonical_payload` whose JSON float round-trip is
exact — so a served response is bit-identical to a cold CLI run of the
same request (asserted by ``tests/test_serve_differential.py``).

Shutdown: SIGTERM/SIGINT (or a ``shutdown`` op) closes the queue —
later requests are ``rejected`` at the door — drains everything already
admitted through normal dispatch, then exits 0, mirroring the graceful
drain of the checkpoint layer.

Self-healing additions (DESIGN §15):

* **idempotent replay** — completed responses are retained in a bounded
  LRU (:class:`repro.serve.replay.ReplayCache`) keyed by the client's
  idempotency key and the work fingerprint; a retried request after a
  connection drop is answered from the store bit-identically, never
  re-executed.
* **overload-aware admission** — a ``health`` op reports queue depth,
  worker saturation, and RSS; when ``max_rss_mb`` is set and exceeded,
  new work is shed with a retryable ``overloaded`` status instead of
  letting the daemon grow into the OOM killer; requests whose deadline
  expired while queued are evicted before dispatch and cost zero worker
  time.
* **heartbeat** — with ``heartbeat_path`` set the front loop touches the
  file every ``heartbeat_interval`` seconds, giving the supervisor
  (:mod:`repro.serve.supervisor`) a liveness signal that distinguishes
  "alive but busy" from "wedged".
"""

import os
import selectors
import signal
import socket
import threading
import time
from dataclasses import replace

from repro.cache import DEFAULT_CACHE_DIR, AnalysisCache
from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.plural.checker import run_check
from repro.resilience.checkpoint import current_rss_mb
from repro.resilience.faults import maybe_fault
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import FailureReport
from repro.serve.batching import plan_batch, work_fingerprint
from repro.serve.protocol import (
    MAX_SOURCE_BYTES,
    FrameBuffer,
    FrameTooLarge,
    ProtocolError,
    normalize_request,
    recv_message,
    send_message,
)
from repro.serve.queueing import BoundedRequestQueue, PendingRequest
from repro.serve.replay import DEFAULT_REPLAY_LIMIT, ReplayCache


class ServeAddressInUse(RuntimeError):
    """A live daemon already answers on the requested socket path."""

    def __init__(self, path, pid):
        self.path = path
        self.pid = pid
        super().__init__(
            "a live daemon (pid %s) already serves on %s — refusing to "
            "steal its socket" % (pid, path)
        )


def probe_live_daemon(socket_path, timeout=0.5):
    """Ping whoever listens on ``socket_path``; their pid, or None.

    None means the path is stale (nobody connects, or whoever does is
    not speaking the protocol) and safe to unlink.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(socket_path)
        send_message(sock, {"op": "ping"})
        response = recv_message(sock)
        if isinstance(response, dict) and response.get("op") == "ping":
            return response.get("pid", -1)
        return None
    except (OSError, ProtocolError, ConnectionError):
        return None
    finally:
        try:
            sock.close()
        except OSError:
            pass


class _Connection:
    """One client connection: socket, frame decoder, serialized writes."""

    def __init__(self, sock, max_frame=None):
        self.sock = sock
        self.buffer = FrameBuffer(max_frame=max_frame)
        #: Responses for one connection may come from the front end and
        #: several workers; the lock keeps frames from interleaving.
        self.write_lock = threading.Lock()
        self.open = True

    def send(self, payload):
        """Send one response; a dead peer is noted, never raised."""
        with self.write_lock:
            if not self.open:
                return False
            try:
                send_message(self.sock, payload)
                return True
            except (OSError, ProtocolError):
                self.open = False
                return False

    def close(self):
        with self.write_lock:
            self.open = False
            try:
                self.sock.close()
            except OSError:
                pass


class AnekServer:
    """The daemon.  ``start()`` + ``wait()`` (or :func:`run_forever`)."""

    def __init__(
        self,
        socket_path=None,
        host="127.0.0.1",
        port=None,
        cache_dir=DEFAULT_CACHE_DIR,
        use_cache=True,
        workers=4,
        queue_limit=64,
        batch_window=0.01,
        batch_max=16,
        policy=None,
        max_rss_mb=0,
        replay_limit=DEFAULT_REPLAY_LIMIT,
        heartbeat_path=None,
        heartbeat_interval=1.0,
        max_frame_bytes=0,
        max_source_bytes=MAX_SOURCE_BYTES,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError(
                "exactly one of socket_path (unix) or port (tcp) is required"
            )
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.workers = max(1, int(workers))
        self.batch_window = batch_window
        self.batch_max = max(1, int(batch_max))
        self.policy = policy or ResiliencePolicy()
        self.queue = BoundedRequestQueue(limit=queue_limit)
        #: Soft RSS budget in MiB; 0 disables overload shedding.
        self.max_rss_mb = max(0, int(max_rss_mb))
        #: Per-connection frame cap in bytes (0 = the protocol ceiling).
        #: A frame announcing more is answered ``invalid`` from its
        #: header alone; the body is drained, never buffered.
        self.max_frame_bytes = max(0, int(max_frame_bytes))
        #: Total source bytes one request may carry (0 = unlimited).
        self.max_source_bytes = max(0, int(max_source_bytes))
        #: Completed responses for idempotent retry replay.
        self.replay = ReplayCache(limit=replay_limit)
        self.heartbeat_path = heartbeat_path
        self.heartbeat_interval = max(0.05, float(heartbeat_interval))
        #: The daemon-lifetime failure ledger (request failures never
        #: abort the daemon; they land here and in the response).
        self.failures = FailureReport()
        self._listener = None
        self._selector = None
        self._pool = None
        self._front_thread = None
        self._dispatcher_thread = None
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._connections = set()
        self._connections_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._request_seq = 0
        self._started_at = None
        self._status_counts = {}
        self._waves = 0
        self._coalesced = 0
        self._expired = 0
        self._shed = 0
        self._busy_workers = 0
        self._executed = 0
        self._last_heartbeat = 0.0

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self):
        """The connectable address string (``PATH`` or ``tcp:HOST:PORT``)."""
        if self.socket_path is not None:
            return self.socket_path
        return "tcp:%s:%d" % (self.host, self.port)

    def start(self):
        """Bind, listen, and start the front-end + dispatcher threads."""
        from concurrent.futures import ThreadPoolExecutor

        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                # Never silently steal the path from a live daemon: two
                # servers unlinking each other's socket would take turns
                # orphaning every connected client.  Only an unanswered
                # (stale, crash-leftover) socket is cleaned up.
                pid = probe_live_daemon(self.socket_path)
                if pid is not None:
                    raise ServeAddressInUse(self.socket_path, pid)
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, data=None)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="anek-serve"
        )
        self._started_at = time.perf_counter()
        self._dispatcher_thread = threading.Thread(
            target=self._dispatch_loop, name="anek-dispatch", daemon=True
        )
        self._front_thread = threading.Thread(
            target=self._front_loop, name="anek-front", daemon=True
        )
        self._dispatcher_thread.start()
        self._front_thread.start()
        return self

    def initiate_shutdown(self):
        """Stop admitting, drain what is admitted, then stop.  Safe to
        call from signal handlers and from any thread, any number of
        times."""
        self._stopping.set()
        self.queue.close()

    def wait(self, poll=0.2):
        """Block until the daemon has drained and stopped."""
        while not self._drained.wait(poll):
            pass
        self._teardown()

    def run_forever(self, install_signals=True, out=None):
        """``start()`` + signal wiring + ``wait()``; returns 0."""
        self.start()
        if out is not None:
            print("serving on %s" % self.address, file=out, flush=True)
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, self._signal_handler)
        self.wait()
        return 0

    def _signal_handler(self, signum, frame):
        self.initiate_shutdown()

    def _teardown(self):
        if self._front_thread is not None:
            self._front_thread.join(timeout=5)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()
        if self._selector is not None:
            self._selector.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    # -- front end -------------------------------------------------------------

    def _front_loop(self):
        while True:
            if self._drained.is_set():
                return
            self._touch_heartbeat()
            events = self._selector.select(timeout=0.1)
            for key, _ in events:
                if key.data is None:
                    self._accept()
                else:
                    self._read(key)

    def _touch_heartbeat(self):
        """Prove front-loop liveness to the supervisor: touch the
        heartbeat file at most every ``heartbeat_interval`` seconds.  A
        daemon that stops touching it is wedged even if its pid lives."""
        if self.heartbeat_path is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_interval:
            return
        self._last_heartbeat = now
        try:
            with open(self.heartbeat_path, "w") as handle:
                handle.write("%d\n" % os.getpid())
        except OSError:
            pass

    def _accept(self):
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        # Blocking socket + selector readiness: recv never blocks (we
        # only call it when readable) and sendall needs no write queue.
        sock.setblocking(True)
        connection = _Connection(sock, max_frame=self.max_frame_bytes or None)
        with self._connections_lock:
            self._connections.add(connection)
        self._selector.register(sock, selectors.EVENT_READ, data=connection)

    def _drop(self, connection):
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError):
            pass
        with self._connections_lock:
            self._connections.discard(connection)
        connection.close()

    def _read(self, key):
        connection = key.data
        try:
            data = connection.sock.recv(65536)
        except OSError:
            data = b""
        if not data:
            self._drop(connection)
            return
        try:
            messages = connection.buffer.feed(data)
        except FrameTooLarge as exc:
            # The header alone announced too much; the decoder drains
            # the body without buffering it and stays in sync, so the
            # refusal is a clean ``invalid`` and the connection lives.
            self.failures.record("serve", "frame", exc, "resource-limit")
            self._count_status("invalid")
            connection.send(
                {"status": "invalid", "error": str(exc), "retryable": False}
            )
            messages = exc.messages
        except ProtocolError as exc:
            # The stream cannot re-synchronize after a framing error.
            connection.send({"status": "error", "error": str(exc)})
            self._drop(connection)
            return
        for raw in messages:
            self._handle_message(connection, raw)

    def _handle_message(self, connection, raw):
        try:
            request = normalize_request(
                raw, max_source_bytes=self.max_source_bytes
            )
        except ProtocolError as exc:
            self._count_status("invalid")
            connection.send({"status": "invalid", "error": str(exc)})
            return
        op = request["op"]
        if op == "ping":
            connection.send(
                {
                    "status": "ok",
                    "op": "ping",
                    "pid": os.getpid(),
                    "draining": self._stopping.is_set(),
                }
            )
            return
        if op == "stats":
            connection.send(self._stats_payload())
            return
        if op == "health":
            connection.send(self._health_payload())
            return
        if op == "shutdown":
            connection.send({"status": "ok", "op": "shutdown"})
            self.initiate_shutdown()
            return
        with self._metrics_lock:
            self._request_seq += 1
            request_id = self._request_seq
        fingerprint = work_fingerprint(request)
        # Chaos site: a ``killproc`` fault here SIGKILLs the daemon
        # while it holds an admitted-but-unanswered request — the
        # client's send succeeded, no response will ever come, and only
        # reconnect + idempotent retry (against the supervisor's next
        # incarnation) recovers it.
        try:
            maybe_fault(
                "serve-admit", "admit:%d:%s" % (request_id, fingerprint[:12])
            )
        except Exception as exc:
            self.failures.record(
                "serve", "admit:%d" % request_id, exc, "request-failed"
            )
            self._count_status("error")
            connection.send(
                {
                    "status": "error",
                    "id": request_id,
                    "error": "%s: %s" % (type(exc).__name__, exc),
                }
            )
            return
        replayed = self.replay.lookup(request["idem"], fingerprint)
        if replayed is not None:
            # At-most-once: the original execution's exact response —
            # bit-identical bytes on the wire, zero re-execution.
            self._count_status("replayed")
            connection.send(replayed)
            return
        if self._overloaded():
            self._shed_overloaded(connection, request_id)
            return
        deadline_at = (
            time.perf_counter() + request["deadline"]
            if request["deadline"] > 0
            else None
        )
        pending = PendingRequest(
            request=request,
            connection=connection,
            request_id=request_id,
            fingerprint=fingerprint,
            deadline_at=deadline_at,
        )
        if not self.queue.put(pending):
            self._count_status("rejected")
            connection.send(
                {
                    "status": "rejected",
                    "id": request_id,
                    "retryable": True,
                    "error": "queue full or daemon draining",
                }
            )

    def _overloaded(self, rss_mb=None):
        """True when the RSS budget is set and currently exceeded."""
        if not self.max_rss_mb:
            return False
        if rss_mb is None:
            rss_mb = current_rss_mb()
        return rss_mb > self.max_rss_mb

    def _shed_overloaded(self, connection, request_id):
        """Refuse one admission under memory pressure.

        Shedding at the door (instead of queueing and OOMing mid-solve)
        keeps the daemon alive and the refusal *retryable*: nothing was
        executed, so the client's backoff-retry reaches a fresh
        admission decision once pressure clears."""
        rss_mb = current_rss_mb()
        exc = MemoryError(
            "rss %.1f MiB over the %d MiB budget" % (rss_mb, self.max_rss_mb)
        )
        self.failures.record(
            "serve", "admit:%d" % request_id, exc, "request-shed"
        )
        self._count_status("overloaded")
        with self._metrics_lock:
            self._shed += 1
        connection.send(
            {
                "status": "overloaded",
                "id": request_id,
                "retryable": True,
                "error": str(exc),
                "rss_mb": rss_mb,
                "max_rss_mb": self.max_rss_mb,
            }
        )

    # -- dispatcher ------------------------------------------------------------

    def _dispatch_loop(self):
        try:
            while True:
                # Deadline-aware eviction: whatever died of old age in
                # the queue is answered right here, before planning —
                # zero worker time spent on a response nobody awaits.
                for pending in self.queue.evict_expired():
                    self._respond_evicted(pending)
                batch = self.queue.get_batch(self.batch_max, self.batch_window)
                live = []
                for pending in batch:
                    if pending.expired():
                        self.queue.metrics.evicted += 1
                        self._respond_evicted(pending)
                    else:
                        live.append(pending)
                batch = live
                if not batch:
                    if self._stopping.is_set() and self.queue.depth() == 0:
                        return
                    continue
                plan = plan_batch(batch)
                with self._metrics_lock:
                    self._waves += 1
                    self._coalesced += plan.coalesced
                futures = [
                    self._pool.submit(self._run_group, group, plan)
                    for group in plan.groups
                ]
                # Wave barrier: drain tracking is then simply "the loop
                # has returned".  A worker exception is a handler bug —
                # surface it on the daemon's ledger, keep serving.
                for group, future in zip(plan.groups, futures):
                    try:
                        future.result()
                    except Exception as exc:  # pragma: no cover - safety net
                        self._fail_group(group, plan, exc)
        finally:
            self._drained.set()

    # -- request execution -----------------------------------------------------

    def _run_group(self, group, plan):
        with self._metrics_lock:
            self._busy_workers += 1
        try:
            self._run_group_inner(group, plan)
        finally:
            with self._metrics_lock:
                self._busy_workers -= 1

    def _run_group_inner(self, group, plan):
        now = time.perf_counter()
        live = []
        for member in group.members:
            if member.expired(now):
                self._respond_expired(member, group, plan, "in queue")
            else:
                live.append(member)
        if not live:
            return
        key = "req:%d:%s" % (live[0].request_id, group.fingerprint[:12])
        try:
            token = maybe_fault("serve", key)
            if token is not None:
                raise RuntimeError(
                    "injected serve-stage divergence (%r)" % token
                )
            executed = self._execute(group.request, live)
        except Exception as exc:
            for member in live:
                self.failures.record("serve", key, exc, "request-failed")
                self._count_status("error")
                self._finish(
                    member,
                    group.fingerprint,
                    {
                        "status": "error",
                        "id": member.request_id,
                        "op": group.request["op"],
                        "error": "%s: %s" % (type(exc).__name__, exc),
                        "serve": self._serve_meta(member, group, plan),
                    },
                )
            return
        with self._metrics_lock:
            self._executed += 1
        now = time.perf_counter()
        for member in live:
            if member.expired(now):
                self._respond_expired(
                    member, group, plan, "during execution", executed
                )
                continue
            status = executed["status"]
            self._count_status(status)
            payload = {
                "status": status,
                "id": member.request_id,
                "op": group.request["op"],
                "result": executed["result"],
                "stats": executed["stats"],
                "serve": self._serve_meta(member, group, plan),
            }
            if member.request["include_marginals"] and "marginals" in executed:
                payload["result"] = dict(executed["result"])
                payload["result"]["marginals"] = executed["marginals"]
            self._finish(member, group.fingerprint, payload)

    def _finish(self, member, fingerprint, payload):
        """Deliver one terminal response: store it for idempotent replay
        *first*, then send.  Ordering matters — a connection that dies
        between execution and delivery (or a ``killproc`` fault at the
        ``serve-respond`` site, which loses both) is exactly the window
        the retry-with-replay contract covers."""
        self.replay.store(member.request.get("idem", ""), fingerprint, payload)
        maybe_fault(
            "serve-respond",
            "respond:%d:%s" % (member.request_id, fingerprint[:12]),
        )
        member.connection.send(payload)

    def _execute(self, request, live):
        """Run one group's work: the same pipeline the CLI runs.  A
        ``check`` runs only the pipeline's governed, isolated parse and
        resolve (no cache) and then the checker."""
        sources = list(request["sources"])
        if request["api"]:
            sources.insert(0, ITERATOR_API_SOURCE)
        started = time.perf_counter()
        settings = InferenceSettings(
            threshold=request["threshold"],
            max_worklist_iters=request["max_iters"],
            executor=request["executor"],
            policy=self._policy_for(live),
        )
        if request["op"] == "check":
            failures = FailureReport()
            program, _, _ = AnekPipeline(settings=settings).resolve_sources(
                sources, failures
            )
            check = run_check(program, failures=failures)
            return {
                "status": "degraded" if failures.has_degradation else "ok",
                "result": {
                    "warnings": [w.format() for w in check.warnings],
                    "count": len(check.warnings),
                },
                "stats": {
                    "elapsed_seconds": time.perf_counter() - started,
                    "check": {
                        "tier": check.tier,
                        "tier1_methods": check.tier1_methods,
                        "tier2_methods": check.tier2_methods,
                        "tier1_sites": check.tier1_sites,
                        "tier2_sites": check.tier2_sites,
                        "tier1_seconds": check.tier1_seconds,
                        "tier2_seconds": check.tier2_seconds,
                    },
                    "failures": failures.to_payload(),
                },
            }
        cache = None
        if self.use_cache and not request["no_cache"]:
            # A fresh AnalysisCache *instance* per request over the
            # shared directory: artifact reuse comes from the store
            # (write-once, atomic — concurrency-safe), while stats stay
            # an unpolluted per-request delta.
            cache = AnalysisCache(cache_dir=self.cache_dir)
        result = AnekPipeline(settings=settings, cache=cache).run_on_sources(
            sources
        )
        stats = result.inference_stats
        executed = {
            "status": "degraded" if result.degraded else "ok",
            "result": result.canonical_payload(),
            "stats": {
                "elapsed_seconds": time.perf_counter() - started,
                "inference": stats.to_payload() if stats is not None else None,
                "cache": (
                    result.cache_stats.to_payload()
                    if result.cache_stats is not None
                    else None
                ),
                "warm_start": bool(stats is not None and stats.warm_start),
                "failures": result.failures.to_payload(),
            },
        }
        if any(member.request["include_marginals"] for member in live):
            executed["marginals"] = result.canonical_payload(
                include_marginals=True
            )["marginals"]
        return executed

    def _policy_for(self, live):
        """The group's policy: the server's, narrowed by the members'
        remaining deadline budget (the tightest member governs; members
        with different ``deadline`` knobs never share a group)."""
        deadlines = [
            member.deadline_at
            for member in live
            if member.deadline_at is not None
        ]
        if not deadlines:
            return self.policy
        remaining = max(min(deadlines) - time.perf_counter(), 0.001)
        solve_deadline = (
            min(self.policy.solve_deadline, remaining)
            if self.policy.solve_deadline
            else remaining
        )
        return replace(self.policy, solve_deadline=solve_deadline)

    def _respond_expired(self, member, group, plan, where, executed=None):
        exc = TimeoutError(
            "deadline of %.3fs exceeded %s"
            % (member.request["deadline"], where)
        )
        self.failures.record(
            "serve",
            "req:%d:%s" % (member.request_id, group.fingerprint[:12]),
            exc,
            "request-expired",
        )
        self._count_status("expired")
        with self._metrics_lock:
            self._expired += 1
        payload = {
            "status": "expired",
            "id": member.request_id,
            "op": group.request["op"],
            "error": str(exc),
            "serve": self._serve_meta(member, group, plan),
        }
        if executed is not None:
            # The work finished anyway (coalesced members shared it);
            # include the result — the *status* still says late.
            payload["result"] = executed["result"]
        self._finish(member, group.fingerprint, payload)

    def _respond_evicted(self, pending):
        """Answer one request evicted from the queue by its deadline —
        from the dispatcher thread, never a worker."""
        exc = TimeoutError(
            "deadline of %.3fs expired while queued (evicted before "
            "dispatch)" % pending.request["deadline"]
        )
        self.failures.record(
            "serve",
            "req:%d:%s" % (pending.request_id, pending.fingerprint[:12]),
            exc,
            "request-expired",
        )
        self._count_status("expired")
        with self._metrics_lock:
            self._expired += 1
        self._finish(
            pending,
            pending.fingerprint,
            {
                "status": "expired",
                "id": pending.request_id,
                "op": pending.request["op"],
                "error": str(exc),
                "serve": {
                    "request_id": pending.request_id,
                    "queue_wait_seconds": pending.queue_wait(),
                    "evicted_in_queue": True,
                    "fingerprint": pending.fingerprint,
                },
            },
        )

    def _serve_meta(self, member, group, plan):
        return {
            "request_id": member.request_id,
            "queue_wait_seconds": member.queue_wait(),
            "batch_size": plan.size,
            "batch_groups": len(plan.groups),
            "coalesced_with": len(group.members) - 1,
            "fingerprint": group.fingerprint,
        }

    def _fail_group(self, group, plan, exc):
        for member in group.members:
            self._count_status("error")
            member.connection.send(
                {
                    "status": "error",
                    "id": member.request_id,
                    "op": group.request["op"],
                    "error": "%s: %s" % (type(exc).__name__, exc),
                    "serve": self._serve_meta(member, group, plan),
                }
            )

    def _health_payload(self):
        """The overload-aware probe: everything an admission-steering
        client (or the supervisor) needs in one cheap, inline answer."""
        rss_mb = current_rss_mb()
        with self._metrics_lock:
            busy = self._busy_workers
        depth = self.queue.depth()
        return {
            "status": "ok",
            "op": "health",
            "pid": os.getpid(),
            "draining": self._stopping.is_set(),
            "uptime_seconds": time.perf_counter() - self._started_at,
            "queue_depth": depth,
            "queue_limit": self.queue.limit,
            "workers": self.workers,
            "busy_workers": busy,
            "saturated": busy >= self.workers and depth > 0,
            "rss_mb": rss_mb,
            "max_rss_mb": self.max_rss_mb,
            "overloaded": self._overloaded(rss_mb),
            "replay": self.replay.to_payload(),
        }

    # -- metrics ---------------------------------------------------------------

    def _count_status(self, status):
        with self._metrics_lock:
            self._status_counts[status] = (
                self._status_counts.get(status, 0) + 1
            )

    def _stats_payload(self):
        with self._metrics_lock:
            counts = dict(self._status_counts)
            waves = self._waves
            coalesced = self._coalesced
            expired = self._expired
            shed = self._shed
            executed = self._executed
        return {
            "status": "ok",
            "op": "stats",
            "pid": os.getpid(),
            "address": self.address,
            "uptime_seconds": time.perf_counter() - self._started_at,
            "workers": self.workers,
            "draining": self._stopping.is_set(),
            "queue": self.queue.metrics.to_payload(),
            "responses": counts,
            "waves": waves,
            "coalesced": coalesced,
            "expired": expired,
            "shed": shed,
            "executed": executed,
            "replay": self.replay.to_payload(),
            "failures": self.failures.to_payload(),
        }
