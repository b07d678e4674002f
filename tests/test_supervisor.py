"""The ``--supervise`` restart loop, exercised with scripted children.

Fast policy tests substitute tiny ``python -c`` children for the real
daemon: the supervisor's contract (restart on crash, leave intentional
exits alone, back off exponentially, give up on a crash loop, SIGKILL a
stale heartbeat) is independent of what the child actually serves.  The
integration tests boot the real ``repro serve --supervise`` stack; the
heavy kill-loop soak lives in ``tests/test_serve_chaos.py``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.cli import EXIT_USAGE
from repro.serve import (
    EXIT_CRASHLOOP,
    ServeClient,
    ServeSupervisor,
    build_child_argv,
    wait_for_server,
)


def _script_child(*code):
    return [sys.executable, "-c", "\n".join(code)]


def _supervisor(child_argv, **kwargs):
    kwargs.setdefault("wire_heartbeat", False)
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("backoff", 0.02)
    kwargs.setdefault("backoff_max", 0.05)
    kwargs.setdefault("stable_seconds", 60.0)
    return ServeSupervisor(child_argv, **kwargs)


class TestBuildChildArgv:
    def test_strips_supervision_flags(self):
        argv = [
            "repro",
            "serve",
            "--socket",
            "/tmp/s.sock",
            "--supervise",
            "--max-restarts",
            "9",
            "--restart-window=5",
            "--supervisor-ledger",
            "/tmp/l.json",
            "--heartbeat",
            "/tmp/h",
            "--workers",
            "2",
        ]
        child = build_child_argv(argv)
        assert child == [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            "/tmp/s.sock",
            "--workers",
            "2",
        ]


class TestSupervisionPolicy:
    def test_clean_exit_is_not_restarted(self):
        sup = _supervisor(_script_child("raise SystemExit(0)"))
        assert sup.run(install_signals=False) == 0
        assert sup.restarts == 0
        kinds = [e["event"] for e in sup.events]
        assert kinds == ["spawn", "exit", "finished"]

    def test_usage_error_is_not_restarted(self):
        """EXIT_USAGE would reproduce identically forever — restarting
        it is the definition of a crash loop."""
        sup = _supervisor(_script_child("raise SystemExit(3)"))
        assert sup.run(install_signals=False) == EXIT_USAGE
        assert sup.restarts == 0

    def test_crash_loop_gives_up_with_distinct_exit_code(self, tmp_path):
        ledger = tmp_path / "supervisor.json"
        sup = _supervisor(
            _script_child("raise SystemExit(7)"),
            max_restarts=3,
            restart_window=30.0,
            ledger_path=str(ledger),
        )
        assert sup.run(install_signals=False) == EXIT_CRASHLOOP
        assert sup.restarts == 3
        kinds = [e["event"] for e in sup.events]
        assert kinds.count("restart") == 3
        assert kinds[-1] == "give-up"
        # The ledger file mirrors the events for the CI artifact.
        recorded = json.loads(ledger.read_text())
        assert recorded["restarts"] == 3
        assert [e["event"] for e in recorded["events"]] == kinds

    def test_backoff_grows_exponentially_and_caps(self):
        sup = _supervisor(
            _script_child("raise SystemExit(7)"),
            max_restarts=4,
            backoff=0.02,
            backoff_max=0.05,
            restart_window=30.0,
        )
        sup.run(install_signals=False)
        delays = [
            e["backoff_seconds"]
            for e in sup.events
            if e["event"] == "restart"
        ]
        assert delays == [0.02, 0.04, 0.05, 0.05]  # doubles, then caps

    def test_crashes_then_stabilizes(self, tmp_path):
        """Two crashes, then a long-lived child: the supervisor restarts
        through the flap and settles."""
        counter = tmp_path / "boots"
        ready = tmp_path / "ready"
        sup = _supervisor(
            _script_child(
                "import pathlib, time, sys",
                "p = pathlib.Path(%r)" % str(counter),
                "n = int(p.read_text()) + 1 if p.exists() else 1",
                "p.write_text(str(n))",
                "sys.exit(7) if n <= 2 else None",
                "pathlib.Path(%r).write_text('up')" % str(ready),
                "time.sleep(120)",
            ),
            max_restarts=5,
            restart_window=30.0,
        )
        box = {}

        def run():
            box["code"] = sup.run(install_signals=False)

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 20
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ready.exists(), "third incarnation never became ready"
        assert sup.restarts == 2
        # An operator stop: forward the signal by hand (no real signal
        # handling inside a non-main thread).
        sup._stop_requested = signal.SIGTERM
        sup._kill_child(signal.SIGTERM, reason="test-stop")
        thread.join(timeout=20)
        assert not thread.is_alive()

    def test_stale_heartbeat_turns_hang_into_crash(self, tmp_path):
        """A child whose pid lives but whose heartbeat stops is wedged:
        the supervisor SIGKILLs it and the restart path takes over."""
        heartbeat = tmp_path / "hb"
        sup = ServeSupervisor(
            _script_child(
                # Accepts and ignores the appended "--heartbeat PATH":
                "import sys, time, pathlib",
                "pathlib.Path(sys.argv[2]).write_text('beat')",
                "time.sleep(120)",  # ... and never beats again
            ),
            heartbeat_path=str(heartbeat),
            heartbeat_timeout=0.4,
            max_restarts=1,
            restart_window=60.0,
            poll_interval=0.02,
            backoff=0.02,
            backoff_max=0.02,
            stable_seconds=60.0,
            wire_heartbeat=True,
        )
        code = sup.run(install_signals=False)
        assert code == EXIT_CRASHLOOP  # both incarnations hung
        reasons = [
            e.get("reason") for e in sup.events if e["event"] == "kill"
        ]
        assert reasons == ["heartbeat-stale", "heartbeat-stale"]


# ---------------------------------------------------------------------------
# Integration: the real daemon under the real supervisor
# ---------------------------------------------------------------------------


def _spawn_supervised(tmp_path, *extra):
    env = dict(os.environ, PYTHONPATH="src")
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
            "2",
            "--supervisor-ledger",
            ledger,
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    return proc, socket_path, ledger


def test_supervise_requires_a_fixed_address(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--supervise"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_USAGE
    assert "fixed address" in proc.stderr


def test_supervised_daemon_restarts_after_sigkill(tmp_path):
    proc, socket_path, ledger = _spawn_supervised(tmp_path)
    try:
        boot = wait_for_server(socket_path, timeout=30.0)
        first_pid = boot["pid"]
        assert first_pid != proc.pid  # the daemon is the child
        os.kill(first_pid, signal.SIGKILL)
        # The supervisor notices, backs off, respawns at the same path.
        deadline = time.monotonic() + 30
        second_pid = None
        while time.monotonic() < deadline:
            try:
                with ServeClient(socket_path, timeout=0.5) as client:
                    pong = client.ping()
                if pong["pid"] != first_pid:
                    second_pid = pong["pid"]
                    break
            except Exception:
                pass
            time.sleep(0.1)
        assert second_pid is not None, "no second incarnation appeared"
        events = json.loads(open(ledger).read())
        assert events["restarts"] >= 1
        # Clean stop: SIGTERM drains the child and the supervisor
        # passes its exit code through.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_supervised_restart_stays_warm(tmp_path):
    """Each incarnation shares the cache dir, so the run after a kill
    replays every visit instead of re-solving from scratch."""
    from tests.serve_harness import LEDGER_CLIENT

    proc, socket_path, _ = _spawn_supervised(tmp_path)
    try:
        wait_for_server(socket_path, timeout=30.0)
        with ServeClient(socket_path, retries=30, backoff=0.05) as client:
            cold = client.infer([LEDGER_CLIENT])
            assert cold["status"] == "ok"
            pid = client.ping()["pid"]
            os.kill(pid, signal.SIGKILL)
            warm = client.infer([LEDGER_CLIENT])  # retries span the gap
        assert warm["status"] == "ok"
        inference = warm["stats"]["inference"]
        assert inference["builds"] == inference["reuses"] == 0, (
            "restart lost the warm cache"
        )
        assert inference["replays"] + inference["skips"] == (
            inference["solves"]
        )
        assert json.dumps(warm["result"], sort_keys=True) == json.dumps(
            cold["result"], sort_keys=True
        )
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
