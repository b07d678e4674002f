"""Serving under load and under fire.

Three layers of assurance for the daemon:

* **units** — wire framing, request validation, the bounded queue, and
  the batch planner, each in isolation;
* **soak** — N client threads × M seeded requests against one daemon:
  every response bit-identical to its solo-run golden (no cross-request
  state bleed), clean queue drain, zero rejections;
* **faults** — injected handler crashes, solve divergence, blown
  deadlines, and a full SIGTERM-mid-flight subprocess drain: each costs
  at most its own response, never the daemon.
"""

import os
import signal
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.resilience.faults import (
    ENV_VAR,
    FaultSpec,
    clear_fault_plan,
    install_fault_plan,
)
from repro.serve import ServeClient, normalize_request, plan_batch
from repro.serve.batching import work_fingerprint
from repro.serve.protocol import (
    MAGIC,
    FrameBuffer,
    ProtocolError,
    encode_message,
)
from repro.serve.queueing import BoundedRequestQueue, PendingRequest
from tests.serve_harness import (
    LEDGER_CLIENT,
    SCANNER_CLIENT,
    canonical_json,
    cold_result,
    running_server,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_fault_plan()
    yield
    clear_fault_plan()


# ---------------------------------------------------------------------------
# Units: protocol, queue, batch planner
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip_byte_by_byte(self):
        frames = encode_message({"op": "ping"}) + encode_message(
            {"op": "stats", "n": 2}
        )
        buffer = FrameBuffer()
        messages = []
        for index in range(len(frames)):
            messages.extend(buffer.feed(frames[index : index + 1]))
        assert messages == [{"op": "ping"}, {"op": "stats", "n": 2}]

    def test_bad_magic_is_fatal(self):
        buffer = FrameBuffer()
        with pytest.raises(ProtocolError):
            buffer.feed(b"HTTP/1.1 GET /")

    def test_oversized_frame_is_refused(self):
        buffer = FrameBuffer()
        with pytest.raises(ProtocolError):
            buffer.feed(MAGIC + struct.pack("<I", 1 << 31))

    def test_normalize_fills_defaults(self):
        request = normalize_request({"op": "infer", "sources": ["class A {}"]})
        assert request["executor"] == "worklist"
        assert request["max_iters"] == 0
        assert request["threshold"] == 0.5
        assert request["deadline"] == 0.0

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "solve"},
            {"op": "infer"},
            {"op": "infer", "sources": [1]},
            {"op": "infer", "sources": ["x"], "threshold": 0.4},
            # The engine is an API-only reference, not a request field.
            {"op": "infer", "sources": ["x"], "engine": "compiled"},
            {"op": "infer", "sources": ["x"], "jobs": -1},
            {"op": "infer", "sources": ["x"], "deadline": -1},
            {"op": "infer", "sources": ["x"], "bogus": True},
            [],
            {"op": "infer", "sources": ["x"], "executor": "thread"},
            {"op": "infer", "sources": ["x"], "deadline": True},
            {"op": "infer", "sources": ["x"], "deadline": float("nan")},
            {"op": "infer", "sources": ["x"], "deadline": float("inf")},
            {"op": "check", "sources": ["x"], "deadline": False},
            {"op": "infer", "sources": ["x"], "deadline": 10**400},
        ],
    )
    def test_normalize_rejects(self, payload):
        with pytest.raises(ProtocolError):
            normalize_request(payload)


class TestQueue:
    def _pending(self, fingerprint="fp"):
        return PendingRequest(
            request={}, connection=None, request_id=0, fingerprint=fingerprint
        )

    def test_rejects_beyond_limit(self):
        queue = BoundedRequestQueue(limit=2)
        assert queue.put(self._pending())
        assert queue.put(self._pending())
        assert not queue.put(self._pending())
        assert queue.metrics.enqueued == 2
        assert queue.metrics.rejected == 1
        assert queue.metrics.max_depth == 2

    def test_closed_queue_rejects_but_drains(self):
        queue = BoundedRequestQueue(limit=4)
        assert queue.put(self._pending())
        queue.close()
        assert not queue.put(self._pending())
        batch = queue.get_batch(max_size=4, window=0.0)
        assert len(batch) == 1
        assert queue.depth() == 0

    def test_get_batch_collects_whole_backlog(self):
        queue = BoundedRequestQueue(limit=8)
        for _ in range(5):
            queue.put(self._pending())
        batch = queue.get_batch(max_size=4, window=0.0)
        assert len(batch) == 4
        assert queue.metrics.dispatched == 4
        assert len(queue.get_batch(max_size=4, window=0.0)) == 1

    def _deadlined(self, deadline_at, request_id=0):
        return PendingRequest(
            request={},
            connection=None,
            request_id=request_id,
            fingerprint="fp",
            deadline_at=deadline_at,
        )

    def test_evict_expired_removes_exactly_the_dead(self):
        queue = BoundedRequestQueue(limit=8)
        now = time.perf_counter()
        dead_one = self._deadlined(now - 1.0, request_id=1)
        alive_deadline = self._deadlined(now + 60.0, request_id=2)
        dead_two = self._deadlined(now - 0.1, request_id=3)
        alive_forever = self._pending()  # no deadline: never expires
        for pending in (dead_one, alive_deadline, dead_two, alive_forever):
            assert queue.put(pending)
        evicted = queue.evict_expired()
        assert evicted == [dead_one, dead_two]
        assert queue.metrics.evicted == 2
        # The survivors keep their FIFO order and stay dispatchable.
        batch = queue.get_batch(max_size=4, window=0.0)
        assert batch == [alive_deadline, alive_forever]

    def test_evict_expired_is_a_noop_without_expiry(self):
        queue = BoundedRequestQueue(limit=4)
        queue.put(self._deadlined(time.perf_counter() + 60.0))
        queue.put(self._pending())
        assert queue.evict_expired() == []
        assert queue.metrics.evicted == 0
        assert queue.depth() == 2


class TestBatchPlanner:
    def _pending(self, request):
        request = normalize_request(request)
        return PendingRequest(
            request=request,
            connection=None,
            request_id=0,
            fingerprint=work_fingerprint(request),
        )

    def test_identical_requests_coalesce(self):
        base = {"op": "infer", "sources": ["class A {}"]}
        plan = plan_batch([self._pending(base) for _ in range(3)])
        assert len(plan.groups) == 1
        assert plan.coalesced == 2
        assert plan.size == 3

    def test_distinct_work_stays_distinct(self):
        one = {"op": "infer", "sources": ["class A {}"]}
        two = {"op": "infer", "sources": ["class B {}"]}
        knob = {"op": "infer", "sources": ["class A {}"], "threshold": 0.75}
        # Worklist and the scheduler run different trajectories.
        sched = {"op": "infer", "sources": ["class A {}"],
                 "executor": "serial"}
        plan = plan_batch(
            [self._pending(p) for p in (one, two, knob, sched)]
        )
        assert len(plan.groups) == 4
        assert plan.coalesced == 0

    def test_deadline_does_not_split_a_group(self):
        """A deadline is enforced per member in the queue and when the
        answer is ready; it does not change the work, so a request with
        one shares a group with the same request without."""
        base = {"op": "infer", "sources": ["class A {}"]}
        late = dict(base, deadline=1.0)
        plan = plan_batch([self._pending(base), self._pending(late)])
        assert len(plan.groups) == 1
        assert plan.coalesced == 1

    def test_marginals_flag_does_not_split_a_group(self):
        base = {"op": "infer", "sources": ["class A {}"]}
        wide = dict(base, include_marginals=True)
        plan = plan_batch([self._pending(base), self._pending(wide)])
        assert len(plan.groups) == 1
        assert plan.coalesced == 1


# ---------------------------------------------------------------------------
# Soak: concurrency without state bleed
# ---------------------------------------------------------------------------


def test_soak_concurrent_clients_match_solo_goldens(tmp_path):
    programs = {
        "ledger": [LEDGER_CLIENT],
        "scanner": [SCANNER_CLIENT],
        "both": [LEDGER_CLIENT, SCANNER_CLIENT],
    }
    goldens = {
        name: canonical_json(cold_result(sources).canonical_payload())
        for name, sources in programs.items()
    }
    names = sorted(programs)
    threads_n, requests_n = 4, 6
    failures = []
    with running_server(tmp_path, workers=4, batch_window=0.02) as server:

        def soak(thread_index):
            with ServeClient(server.address) as client:
                for request_index in range(requests_n):
                    name = names[(thread_index + request_index) % len(names)]
                    response = client.infer(programs[name])
                    if response["status"] != "ok":
                        failures.append((name, response))
                    elif canonical_json(response["result"]) != goldens[name]:
                        failures.append((name, "result mismatch"))

        threads = [
            threading.Thread(target=soak, args=(index,))
            for index in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServeClient(server.address) as client:
            stats = client.stats()
    assert not failures, failures[:3]
    total = threads_n * requests_n
    assert stats["responses"].get("ok", 0) == total
    # Every request either ran (queued) or repeated finished work.
    assert stats["queue"]["enqueued"] + stats["replay"]["replays"] == total
    assert stats["queue"]["dispatched"] == stats["queue"]["enqueued"]
    assert stats["queue"]["rejected"] == 0
    assert stats["failures"]["clean"]


def test_full_queue_rejects_at_the_door(tmp_path):
    install_fault_plan(
        [FaultSpec(stage="serve", key="", kind="delay", count=1, seconds=1.0)]
    )
    with running_server(
        tmp_path, workers=1, queue_limit=1, batch_max=1
    ) as server:
        statuses = []
        lock = threading.Lock()

        def hit():
            with ServeClient(server.address) as client:
                response = client.infer([LEDGER_CLIENT])
                with lock:
                    statuses.append(response["status"])

        # First request stalls in its worker (injected 1s delay) ...
        stalled = threading.Thread(target=hit)
        stalled.start()
        time.sleep(0.4)
        # ... so of the next three, exactly one fits the depth-1 queue.
        flood = [threading.Thread(target=hit) for _ in range(3)]
        for thread in flood:
            thread.start()
            time.sleep(0.05)
        for thread in flood:
            thread.join()
        stalled.join()
    assert sorted(statuses) == ["ok", "ok", "rejected", "rejected"]


# ---------------------------------------------------------------------------
# Faults: one response per fault, never the daemon
# ---------------------------------------------------------------------------


def test_handler_crash_costs_one_response(tmp_path):
    golden = canonical_json(cold_result([LEDGER_CLIENT]).canonical_payload())
    install_fault_plan(
        [FaultSpec(stage="serve", key="", kind="raise", count=1)]
    )
    with running_server(tmp_path) as server:
        with ServeClient(server.address) as client:
            crashed = client.infer([LEDGER_CLIENT])
            healthy = client.infer([LEDGER_CLIENT])
            stats = client.stats()
    assert crashed["status"] == "error"
    assert "InjectedFault" in crashed["error"]
    assert healthy["status"] == "ok"
    assert canonical_json(healthy["result"]) == golden
    ledger = stats["failures"]
    assert ledger["by_stage"] == {"serve": 1}
    assert [f["disposition"] for f in ledger["failures"]] == ["request-failed"]


def test_removed_executor_is_answered_invalid(tmp_path):
    with running_server(tmp_path) as server:
        with ServeClient(server.address) as client:
            refused = [
                client.call(
                    {"op": "infer", "sources": [LEDGER_CLIENT], **removed}
                )
                for removed in (
                    {"executor": "thread"},
                    {"executor": "process"},
                    {"jobs": 2},
                )
            ]
            healthy = client.infer([LEDGER_CLIENT])
    assert [response["status"] for response in refused] == ["invalid"] * 3
    assert "unknown executor" in refused[0]["error"]
    assert "unknown executor" in refused[1]["error"]
    assert "unknown request field(s): jobs" in refused[2]["error"]
    assert healthy["status"] == "ok"


def test_solve_divergence_degrades_request_not_daemon(tmp_path):
    golden = canonical_json(cold_result([LEDGER_CLIENT]).canonical_payload())
    install_fault_plan([FaultSpec(stage="solve", key="", kind="nan", count=1)])
    with running_server(tmp_path) as server:
        with ServeClient(server.address) as client:
            hit = client.infer([SCANNER_CLIENT])
            clear_fault_plan()
            healthy = client.infer([LEDGER_CLIENT])
    # The retry ladder usually recovers the NaN attempt fully; either
    # way the request completes and reports its failure record.
    assert hit["status"] in ("ok", "degraded")
    assert hit["stats"]["failures"]["failures"]
    assert healthy["status"] == "ok"
    assert canonical_json(healthy["result"]) == golden


def test_expired_deadline_does_not_poison_later_requests(tmp_path):
    golden = canonical_json(cold_result([LEDGER_CLIENT]).canonical_payload())
    with running_server(tmp_path) as server:
        with ServeClient(server.address) as client:
            late = client.infer([LEDGER_CLIENT], deadline=1e-06)
            healthy = client.infer([LEDGER_CLIENT])
            stats = client.stats()
    assert late["status"] == "expired"
    assert healthy["status"] == "ok"
    assert canonical_json(healthy["result"]) == golden
    dispositions = [
        f["disposition"] for f in stats["failures"]["failures"]
    ]
    assert dispositions == ["request-expired"]


def test_queued_request_expires_without_costing_a_worker(tmp_path):
    """A request whose deadline dies *in the queue* — parked behind a
    stalled wave on a one-worker daemon — is answered ``expired`` by the
    dispatcher's eviction sweep and never reaches a worker: the daemon
    executes exactly one solve."""
    install_fault_plan(
        [FaultSpec(stage="serve", key="", kind="delay", count=1, seconds=0.8)]
    )
    results = {}
    with running_server(
        tmp_path, workers=1, batch_max=1, batch_window=0.0
    ) as server:

        def stalled():
            with ServeClient(server.address) as client:
                results["stalled"] = client.infer([LEDGER_CLIENT])

        def doomed():
            with ServeClient(server.address) as client:
                results["doomed"] = client.infer(
                    [SCANNER_CLIENT], deadline=0.2
                )

        first = threading.Thread(target=stalled)
        first.start()
        time.sleep(0.3)  # wave 1 is in its injected 0.8s stall
        second = threading.Thread(target=doomed)
        second.start()
        first.join()
        second.join()
        with ServeClient(server.address) as client:
            stats = client.stats()
    assert results["stalled"]["status"] == "ok"
    doomed_response = results["doomed"]
    assert doomed_response["status"] == "expired"
    assert doomed_response["serve"]["evicted_in_queue"] is True
    assert "evicted" in doomed_response["error"]
    # Zero worker time: one solve executed, one request evicted.
    assert stats["executed"] == 1
    assert stats["queue"]["evicted"] == 1
    assert stats["queue"]["dispatched"] == 1
    dispositions = [
        f["disposition"] for f in stats["failures"]["failures"]
    ]
    assert dispositions == ["request-expired"]


def test_sigterm_mid_flight_drains_and_exits_zero(tmp_path):
    """The PR-5 shutdown contract, ported to the daemon: SIGTERM while a
    request is in flight answers that request, then exits 0."""
    env = dict(os.environ, PYTHONPATH="src")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--workers",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        boot = daemon.stdout.readline().strip()
        address = boot.split("serving on ", 1)[1]
        result_box = {}

        def request():
            # An in-process client connects in microseconds, so the
            # request is reliably in flight when the signal lands (a
            # subprocess client would still be importing Python).
            with ServeClient(address) as client:
                result_box["response"] = client.infer([LEDGER_CLIENT])

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.1)  # let the request reach the daemon
        daemon.send_signal(signal.SIGTERM)
        thread.join()
        assert daemon.wait(timeout=30) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    response = result_box["response"]
    assert response["status"] == "ok"
    assert response["result"]["specs"]
