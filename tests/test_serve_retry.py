"""Retries, the completed-work store, overload admission.

The self-healing client/daemon contract (DESIGN §15), bottom-up:

* **units** — the completed-work LRU (keyed by work fingerprint, clean
  ``ok`` outcomes only), the retryable status surface;
* **client** — connection hygiene after errors (a failed call never
  leaves a half-sent frame stream behind), backoff-bounded retries,
  per-call deadlines, and ``shutdown`` never retried;
* **daemon** — repeated work answered from the store without running
  again (asserted via the server's replay/executed counters), failed
  and expired outcomes run again, RSS overload shedding with retryable
  refusals, the ``health`` op, and the stale-socket/live-daemon start
  probe.
"""

import os
import socket
import threading
import time

import pytest

from repro.serve import (
    AnekServer,
    ProtocolError,
    ReplayCache,
    ServeAddressInUse,
    ServeClient,
    ServeError,
    normalize_request,
    probe_live_daemon,
    wait_for_server,
)
from repro.resilience.faults import (
    FaultSpec,
    clear_fault_plan,
    install_fault_plan,
)
from tests.serve_harness import (
    LEDGER_CLIENT,
    canonical_json,
    cold_result,
    running_server,
)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


def _outcome(status="ok", failures=(), **extra):
    outcome = {
        "status": status,
        "result": {"n": 1},
        "stats": {"failures": {"failures": list(failures)}},
    }
    outcome.update(extra)
    return outcome


class TestReplayCache:
    def test_store_and_replay(self):
        cache = ReplayCache(limit=4)
        outcome = _outcome()
        assert cache.store("fp", outcome)
        assert cache.lookup("fp") == outcome
        assert cache.lookup("other") is None
        assert cache.replays == 1
        assert cache.stored == 1

    def test_a_hit_is_a_fresh_copy(self):
        """The store holds text: no caller can change a stored answer."""
        cache = ReplayCache()
        cache.store("fp", _outcome())
        cache.lookup("fp")["result"]["n"] = 2
        assert cache.lookup("fp")["result"] == {"n": 1}

    @pytest.mark.parametrize("status", ["rejected", "overloaded", "invalid"])
    def test_admission_refusals_are_not_replayable(self, status):
        cache = ReplayCache()
        assert not cache.store("fp", _outcome(status))
        assert cache.lookup("fp") is None

    @pytest.mark.parametrize("status", ["ok"])
    def test_execution_outcomes_are_replayable(self, status):
        """A clean execution outcome is the one kind the store keeps."""
        cache = ReplayCache()
        assert cache.store("fp", _outcome(status))
        assert cache.lookup("fp")["status"] == status

    @pytest.mark.parametrize(
        "outcome",
        [
            _outcome("degraded"),
            _outcome("error"),
            _outcome("expired"),
            _outcome(failures=[{"disposition": "recovered"}]),
        ],
        ids=["degraded", "error", "expired", "ok-with-failures"],
    )
    def test_outcomes_that_may_not_recur_are_not_stored(self, outcome):
        cache = ReplayCache()
        assert not cache.store("fp", outcome)
        assert cache.lookup("fp") is None

    def test_marginals_hit_needs_stored_marginals(self):
        cache = ReplayCache()
        cache.store("fp", _outcome())
        assert cache.lookup("fp", marginals=True) is None
        cache.store("fp", _outcome(marginals={"m": 1}))
        assert cache.lookup("fp", marginals=True)["marginals"] == {"m": 1}
        assert cache.lookup("fp")["marginals"] == {"m": 1}

    def test_lru_bound_evicts_oldest(self):
        cache = ReplayCache(limit=2)
        cache.store("a", _outcome())
        cache.store("b", _outcome())
        cache.lookup("a")  # refresh a
        cache.store("c", _outcome())  # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None
        assert cache.evicted == 1

    def test_restore_same_key_does_not_double_count(self):
        cache = ReplayCache(limit=2)
        cache.store("a", _outcome(result={"v": 1}))
        cache.store("a", _outcome(result={"v": 2}))
        assert cache.stored == 1
        assert cache.lookup("a")["result"]["v"] == 2

    def test_concurrent_stores_and_lookups_keep_counts_exact(self):
        """The daemon's front end looks up while workers store: no
        update may be lost, under a short thread switch interval."""
        import sys

        cache = ReplayCache(limit=64)
        threads_n, keys_n = 8, 50
        hits = [0] * threads_n

        def worker(index):
            for key in range(keys_n):
                cache.store("fp-%d-%d" % (index, key), _outcome())
                for owner in (index, (index + 1) % threads_n):
                    if cache.lookup("fp-%d-%d" % (owner, key)) is not None:
                        hits[index] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        payload = cache.to_payload()
        assert payload["stored"] == threads_n * keys_n
        assert payload["entries"] == 64
        assert payload["stored"] - payload["evicted"] == payload["entries"]
        assert payload["replays"] == sum(hits) > 0


class TestIdemValidation:
    @pytest.mark.parametrize("idem", [17, None, ["k"], "x" * 129])
    def test_bad_idem_rejected(self, idem):
        """``idem`` is not a request field: any value of it is refused."""
        with pytest.raises(ProtocolError, match="unknown request field"):
            normalize_request(
                {"op": "infer", "sources": ["class A {}"], "idem": idem}
            )


# ---------------------------------------------------------------------------
# Client: connection hygiene, retries
# ---------------------------------------------------------------------------


class _FlakyServer:
    """A raw socket server scripted per-connection: each entry in
    ``script`` handles one accepted connection ("drop" = read the
    request then hang up; a dict = answer every request with it)."""

    def __init__(self, script):
        self.script = list(script)
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.address = "tcp:127.0.0.1:%d" % self.listener.getsockname()[1]
        self.served = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        from repro.serve.protocol import FrameBuffer, send_message

        for action in self.script:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.served += 1
            buffer = FrameBuffer()
            try:
                while True:
                    data = conn.recv(65536)
                    if not data:
                        break
                    for _ in buffer.feed(data):
                        if action == "drop":
                            conn.close()
                            break
                        send_message(conn, action)
                    else:
                        continue
                    break
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
        self.listener.close()

    def close(self):
        try:
            self.listener.close()
        except OSError:
            pass


class TestClientConnectionHygiene:
    def test_error_discards_connection_and_next_call_reconnects(self):
        """Satellite: after a mid-call hangup the socket is closed and
        nulled, so the next call dials fresh instead of deadlocking on
        a desynced frame stream."""
        server = _FlakyServer(["drop", {"status": "ok", "op": "ping"}])
        try:
            client = ServeClient(server.address)
            with pytest.raises(ServeError):
                client.ping()
            assert not client.connected
            response = client.ping()  # transparently reconnects
            assert response["status"] == "ok"
            assert server.served == 2
        finally:
            server.close()

    def test_retrying_call_survives_a_drop(self):
        server = _FlakyServer(["drop", {"status": "ok", "op": "ping"}])
        try:
            client = ServeClient(server.address, retries=3, backoff=0.01)
            assert client.ping()["status"] == "ok"
            assert server.served == 2
        finally:
            server.close()

    def test_retries_exhausted_raises_with_attempt_count(self):
        server = _FlakyServer(["drop", "drop", "drop"])
        try:
            client = ServeClient(server.address, retries=2, backoff=0.01)
            with pytest.raises(ServeError, match="3 attempt"):
                client.ping()
        finally:
            server.close()

    def test_call_deadline_bounds_the_retry_loop(self):
        client = ServeClient(
            "tcp:127.0.0.1:1",  # nothing listens here
            retries=1000,
            backoff=0.05,
            call_deadline=0.3,
        )
        started = time.monotonic()
        with pytest.raises(ServeError, match="deadline"):
            client.ping()
        assert time.monotonic() - started < 5.0

    def test_shutdown_is_never_retried(self, monkeypatch):
        from repro.serve import client as client_module

        real_connect = client_module.connect
        dials = []

        def counting_connect(address, timeout=None):
            dials.append(address)
            return real_connect(address, timeout=timeout)

        monkeypatch.setattr(client_module, "connect", counting_connect)
        client = ServeClient("tcp:127.0.0.1:1", retries=5, backoff=0.01)
        with pytest.raises(ServeError):
            client.shutdown()
        assert dials == ["tcp:127.0.0.1:1"]  # one attempt, no retry


# ---------------------------------------------------------------------------
# Daemon: replay, overload, health, socket probe
# ---------------------------------------------------------------------------


def test_resubmission_is_answered_without_execution(tmp_path):
    with running_server(tmp_path, workers=2) as server:
        with ServeClient(server.address) as client:
            first = client.infer([LEDGER_CLIENT])
            second = client.infer([LEDGER_CLIENT])
            stats = client.stats()
    assert first["status"] == second["status"] == "ok"
    assert second["id"] != first["id"]
    assert second["serve"]["replayed"] is True
    assert "replayed" not in first["serve"]
    # The answer and the stats of the run that produced it.
    assert canonical_json(second["result"]) == canonical_json(first["result"])
    assert canonical_json(second["stats"]) == canonical_json(first["stats"])
    assert stats["executed"] == 1
    assert stats["queue"]["enqueued"] == 1
    assert stats["replay"]["replays"] == 1
    assert stats["replay"]["stored"] == 1
    assert stats["responses"] == {"ok": 2}


def test_marginals_request_runs_again_after_a_plain_one(tmp_path):
    """``include_marginals`` is outside the fingerprint: a stored answer
    without marginals cannot serve a request for them."""
    cold = cold_result([LEDGER_CLIENT]).canonical_payload(
        include_marginals=True
    )
    with running_server(tmp_path, workers=2) as server:
        with ServeClient(server.address) as client:
            plain = client.infer([LEDGER_CLIENT])
            wide = client.infer([LEDGER_CLIENT], include_marginals=True)
            again = client.infer([LEDGER_CLIENT], include_marginals=True)
            stats = client.stats()
    assert "marginals" not in plain["result"]
    assert canonical_json(wide["result"]) == canonical_json(cold)
    assert "replayed" not in wide["serve"]
    assert again["serve"]["replayed"] is True
    assert canonical_json(again["result"]) == canonical_json(cold)
    assert stats["executed"] == 2
    assert stats["replay"]["replays"] == 1


def test_failed_run_runs_again_and_returns_ok(tmp_path):
    """A failed outcome may not recur, so it is never stored: the same
    request sent again runs, and only its clean answer is stored."""
    golden = canonical_json(cold_result([LEDGER_CLIENT]).canonical_payload())
    install_fault_plan(
        [FaultSpec(stage="serve", key="", kind="raise", count=1)]
    )
    try:
        with running_server(tmp_path, workers=1) as server:
            with ServeClient(server.address) as client:
                failed = client.infer([LEDGER_CLIENT])
                healthy = client.infer([LEDGER_CLIENT])
                stored = client.infer([LEDGER_CLIENT])
                stats = client.stats()
    finally:
        clear_fault_plan()
    assert failed["status"] == "error"
    assert healthy["status"] == "ok"
    assert canonical_json(healthy["result"]) == golden
    assert "replayed" not in healthy["serve"]
    assert stored["serve"]["replayed"] is True
    assert stats["queue"]["enqueued"] == 2
    assert stats["replay"]["replays"] == 1


def test_expired_outcome_runs_again(tmp_path):
    with running_server(tmp_path, workers=1) as server:
        with ServeClient(server.address) as client:
            late = client.infer([LEDGER_CLIENT], deadline=1e-06)
            again = client.infer([LEDGER_CLIENT], deadline=1e-06)
            stats = client.stats()
    assert late["status"] == again["status"] == "expired"
    assert stats["queue"]["enqueued"] == 2
    assert stats["replay"]["replays"] == 0
    assert stats["replay"]["stored"] == 0


def test_request_carrying_idem_is_answered_invalid(tmp_path):
    with running_server(tmp_path, workers=1) as server:
        with ServeClient(server.address) as client:
            refused = client.call(
                {"op": "infer", "sources": [LEDGER_CLIENT], "idem": "k-1"}
            )
            stats = client.stats()
    assert refused["status"] == "invalid"
    assert "unknown request field(s): idem" in refused["error"]
    assert stats["queue"]["enqueued"] == 0


def test_overload_sheds_with_retryable_status(tmp_path):
    golden = canonical_json(cold_result([LEDGER_CLIENT]).canonical_payload())
    with running_server(tmp_path, workers=1, max_rss_mb=1) as server:
        with ServeClient(server.address) as client:
            shed = client.infer([LEDGER_CLIENT])
            health = client.health()
            stats = client.stats()
            # Lifting the budget restores service on the same daemon.
            server.max_rss_mb = 0
            recovered = client.infer([LEDGER_CLIENT])
    assert shed["status"] == "overloaded"
    assert shed["retryable"] is True
    assert shed["rss_mb"] > 1
    assert health["overloaded"] is True
    assert stats["shed"] == 1
    assert stats["executed"] == 0  # nothing ran while overloaded
    dispositions = [
        f["disposition"] for f in stats["failures"]["failures"]
    ]
    assert dispositions == ["request-shed"]
    assert recovered["status"] == "ok"
    assert canonical_json(recovered["result"]) == golden


def test_retrying_client_returns_last_refusal_when_pressure_persists(
    tmp_path,
):
    with running_server(tmp_path, workers=1, max_rss_mb=1) as server:
        with ServeClient(server.address, retries=2, backoff=0.01) as client:
            response = client.infer([LEDGER_CLIENT])
        with ServeClient(server.address) as probe:
            stats = probe.stats()
    assert response["status"] == "overloaded"
    # Every attempt reached a fresh admission decision (3 sheds), and
    # none of them executed anything.
    assert stats["shed"] == 3
    assert stats["executed"] == 0


def test_health_op_reports_queue_and_workers(tmp_path):
    with running_server(tmp_path, workers=3) as server:
        with ServeClient(server.address) as client:
            health = client.health()
    assert health["status"] == "ok"
    assert health["op"] == "health"
    assert health["queue_depth"] == 0
    assert health["queue_limit"] == server.queue.limit
    assert health["workers"] == 3
    assert health["busy_workers"] == 0
    assert health["saturated"] is False
    assert health["overloaded"] is False
    assert health["max_rss_mb"] == 0
    assert health["rss_mb"] > 0
    assert "replay" in health


def test_start_refuses_to_steal_a_live_daemons_socket(tmp_path):
    path = str(tmp_path / "daemon.sock")
    first = AnekServer(socket_path=path, cache_dir=str(tmp_path / "c1"))
    first.start()
    try:
        assert probe_live_daemon(path) == os.getpid()
        second = AnekServer(socket_path=path, cache_dir=str(tmp_path / "c2"))
        with pytest.raises(ServeAddressInUse, match="live daemon"):
            second.start()
        # The incumbent is unharmed.
        with ServeClient(path) as client:
            assert client.ping()["status"] == "ok"
    finally:
        first.initiate_shutdown()
        first.wait()


def test_start_reclaims_a_stale_socket(tmp_path):
    path = str(tmp_path / "daemon.sock")
    # A crash leftover: a bound-but-unserved socket file.
    leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    leftover.bind(path)
    leftover.close()  # nobody will ever accept
    assert probe_live_daemon(path) is None
    server = AnekServer(socket_path=path, cache_dir=str(tmp_path / "cache"))
    server.start()
    try:
        with ServeClient(path) as client:
            assert client.ping()["status"] == "ok"
    finally:
        server.initiate_shutdown()
        server.wait()


def test_wait_for_server_reports_attempts(tmp_path):
    with pytest.raises(ServeError, match=r"\d+ attempt"):
        wait_for_server(
            str(tmp_path / "nothing.sock"),
            timeout=0.3,
            interval=0.05,
            connect_timeout=0.1,
        )


def test_client_reconnects_across_daemon_generations(tmp_path):
    """The full self-healing client path against real daemons: the first
    daemon goes away, a second comes up at the same address, and one
    retrying call spans the gap."""
    path = str(tmp_path / "daemon.sock")
    golden = canonical_json(cold_result([LEDGER_CLIENT]).canonical_payload())
    first = AnekServer(socket_path=path, cache_dir=str(tmp_path / "cache"))
    first.start()
    client = ServeClient(
        path, retries=40, backoff=0.05, backoff_max=0.2
    )
    reviver = [None]
    try:
        assert client.ping()["status"] == "ok"
        first.initiate_shutdown()
        first.wait()

        def revive():
            time.sleep(0.4)
            second = AnekServer(
                socket_path=path, cache_dir=str(tmp_path / "cache")
            )
            second.start()
            reviver[0] = second

        thread = threading.Thread(target=revive)
        thread.start()
        response = client.infer([LEDGER_CLIENT])  # spans the outage
        thread.join()
        assert response["status"] == "ok"
        assert canonical_json(response["result"]) == golden
    finally:
        client.close()
        if reviver[0] is not None:
            reviver[0].initiate_shutdown()
            reviver[0].wait()
