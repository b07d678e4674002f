"""Chaos: SIGKILL the daemon under load, demand bit-identical results.

The acceptance bar of the self-healing serving stack (DESIGN §15):

* **kill-loop soak** — a supervised daemon is SIGKILLed repeatedly
  while concurrent retrying clients hammer it; every request must
  *eventually* succeed and every result must be bit-identical to a
  clean solo run (the kills are invisible in the output, only in the
  supervisor's ledger);
* **server-kill fault sites** — deterministic ``killproc`` faults at
  ``serve-admit`` (request admitted, no response yet) and
  ``serve-respond`` (work done, response unsent) kill the daemon at the
  two nastiest points of the request lifecycle; supervisor + client
  retry must still converge;
* **repeated work runs once** — a resubmission of work the daemon
  already finished is answered from its completed-work store, asserted
  via the daemon's replay/executed counters.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import ServeClient, wait_for_server
from tests.serve_harness import (
    LEDGER_CLIENT,
    SCANNER_CLIENT,
    canonical_json,
    cold_result,
)

#: The soak's bar, mirrored by the CI ``serve-chaos`` job.
MIN_KILLS = 5
CLIENTS = 4
REQUESTS_PER_CLIENT = 6


def _spawn_supervised(tmp_path, env_extra=None, *extra):
    env = dict(os.environ, PYTHONPATH="src")
    if env_extra:
        env.update(env_extra)
    socket_path = str(tmp_path / "daemon.sock")
    ledger = str(tmp_path / "supervisor.json")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--supervise",
            "--socket",
            socket_path,
            "--cache-dir",
            str(tmp_path / "cache"),
            "--workers",
            str(CLIENTS),
            "--max-restarts",
            "50",
            "--restart-window",
            "600",
            # Fast restarts: the soak kills far more often than any real
            # crash loop, and the default backoff cap (5s) compounding
            # across kills would outlast the clients' retry budgets.
            "--restart-backoff",
            "0.05",
            "--restart-backoff-max",
            "0.5",
            "--supervisor-ledger",
            ledger,
            *extra,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    return proc, socket_path, ledger


def _stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _retrying_client(address):
    return ServeClient(
        address,
        retries=60,
        backoff=0.05,
        backoff_max=0.5,
        call_deadline=120.0,
    )


def test_kill_loop_soak_converges_bit_identically(tmp_path):
    """≥5 SIGKILLs under 4 concurrent retrying clients: 100% eventual
    success, results bit-identical to clean solo runs, warm restarts,
    and a final probe proving a resubmission does not run again."""
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
    proc, socket_path, ledger = _spawn_supervised(tmp_path)
    failures = []
    kills = []
    stop_killing = threading.Event()
    try:
        wait_for_server(socket_path, timeout=30.0)

        def killer():
            """SIGKILL the current incarnation, wait for the next, and
            repeat until the soak ends — at least MIN_KILLS times."""
            while not stop_killing.is_set() or len(kills) < MIN_KILLS:
                try:
                    pong = wait_for_server(socket_path, timeout=30.0)
                    pid = pong["pid"]
                    time.sleep(0.15)  # let some requests get in flight
                    os.kill(pid, signal.SIGKILL)
                    kills.append(pid)
                except Exception as exc:  # pragma: no cover - diagnostics
                    failures.append(("killer", repr(exc)))
                    return
                time.sleep(0.2)

        def soak(thread_index):
            with _retrying_client(socket_path) as client:
                for request_index in range(REQUESTS_PER_CLIENT):
                    name = names[(thread_index + request_index) % len(names)]
                    try:
                        response = client.infer(programs[name])
                    except Exception as exc:
                        failures.append((name, repr(exc)))
                        continue
                    if response["status"] != "ok":
                        failures.append((name, response.get("status"),
                                         response.get("error")))
                    elif canonical_json(response["result"]) != goldens[name]:
                        failures.append((name, "result mismatch"))

        killer_thread = threading.Thread(target=killer)
        soakers = [
            threading.Thread(target=soak, args=(index,))
            for index in range(CLIENTS)
        ]
        killer_thread.start()
        for thread in soakers:
            thread.start()
        for thread in soakers:
            thread.join()
        stop_killing.set()
        killer_thread.join(timeout=120)
        assert not killer_thread.is_alive(), "killer wedged"
        assert not failures, failures[:5]
        assert len(kills) >= MIN_KILLS

        # The survivor daemon: the same work twice → the second is
        # answered from the store with the first's answer and stats.
        with _retrying_client(socket_path) as client:
            first = client.infer([LEDGER_CLIENT])
            before = client.stats()
            second = client.infer([LEDGER_CLIENT])
            after = client.stats()
        assert first["status"] == "ok"
        assert canonical_json(first["result"]) == goldens["ledger"]
        assert second["serve"]["replayed"] is True
        for part in ("status", "result", "stats"):
            assert canonical_json(first[part]) == canonical_json(second[part])
        assert after["executed"] == before["executed"]  # no re-execution
        assert after["replay"]["replays"] == before["replay"]["replays"] + 1

        # The supervisor's flight recorder saw every kill.
        recorded = json.loads(open(ledger).read())
        assert recorded["restarts"] >= MIN_KILLS
        # Clean stop passes the drain exit code through.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        stop_killing.set()
        _stop(proc)


@pytest.mark.parametrize("site", ["serve-admit", "serve-respond"])
def test_killproc_at_serve_sites_converges(tmp_path, site):
    """A SIGKILL planted at the nastiest per-request points: after
    admission with no response, and after execution with the response
    unsent.  One retrying call must span the crash."""
    marker = str(tmp_path / ("%s.marker" % site))
    plan = FaultPlan(
        [
            FaultSpec(
                stage=site, key="", kind="killproc", count=-1, marker=marker
            )
        ]
    )
    golden = canonical_json(cold_result([LEDGER_CLIENT]).canonical_payload())
    proc, socket_path, ledger = _spawn_supervised(tmp_path, plan.env())
    try:
        wait_for_server(socket_path, timeout=30.0)
        with _retrying_client(socket_path) as client:
            response = client.infer([LEDGER_CLIENT])
        assert response["status"] == "ok"
        assert canonical_json(response["result"]) == golden
        assert os.path.exists(marker), "the fault never fired"
        recorded = json.loads(open(ledger).read())
        assert recorded["restarts"] >= 1
    finally:
        _stop(proc)
