"""The serve supervisor: ``repro serve --supervise``.

One small, allocation-free parent process that keeps a daemon
incarnation alive at a **fixed address**:

* it spawns the daemon as a child process (the same ``repro serve``
  command line minus ``--supervise``), hands every incarnation the same
  cache directory — so a restart replays the visits its predecessors
  stored instead of solving them — and the same socket
  path, which the daemon's stale-socket probe makes safe (a dead
  incarnation's leftover socket never answers a ping and is unlinked;
  a live one refuses the start instead of being stolen from);
* liveness is watched two ways: ``waitpid`` (crash/exit detection) and
  a **heartbeat file** the daemon's front loop touches every second —
  a child whose pid lives but whose heartbeat goes stale past
  ``heartbeat_timeout`` is wedged and gets SIGKILLed, which turns
  "hung" into "crashed" and reuses the restart path;
* crashed children are restarted under **exponential backoff** (capped,
  reset after a stable run), and a **crash loop** — more than
  ``max_restarts`` restarts inside ``restart_window`` seconds — makes
  the supervisor give up with the distinct exit code
  :data:`EXIT_CRASHLOOP` instead of flapping forever;
* SIGTERM/SIGINT are forwarded to the child and the supervisor exits
  with the child's own (graceful-drain) exit code; a child that exits
  0 on its own (``shutdown`` op) or with a usage error is *not*
  restarted — only unexpected deaths are.

Every lifecycle event is appended to an in-memory ledger and, when
``ledger_path`` is set, mirrored to a JSON file after each event — the
chaos CI job uploads it as the run's flight recorder.
"""

import json
import os
import signal
import subprocess
import sys
import time

#: Supervisor exit code: the child crash-looped and we gave up.
#: Distinct from every CLI code (0/1/2/3/4/5) so orchestrators can tell
#: "the service cannot hold itself up" from one bad run.
EXIT_CRASHLOOP = 6

#: Child exit codes that end supervision instead of triggering a
#: restart: a clean drain (0) is an intended stop, and a usage error
#: (3) would reproduce identically on every restart.
_NO_RESTART_EXITS = (0, 3)


def build_child_argv(argv=None):
    """The child daemon's command line: this process's own serve
    invocation with the supervision-only flags stripped."""
    argv = list(sys.argv if argv is None else argv)
    child = [sys.executable, "-m", "repro"]
    skip_next = False
    for arg in argv[1:]:
        if skip_next:
            skip_next = False
            continue
        if arg == "--supervise":
            continue
        if arg in (
            "--max-restarts",
            "--restart-window",
            "--restart-backoff",
            "--restart-backoff-max",
            "--supervisor-ledger",
            "--heartbeat",  # the supervisor re-appends its own
        ):
            skip_next = True
            continue
        if arg.startswith(
            (
                "--max-restarts=",
                "--restart-window=",
                "--restart-backoff=",
                "--restart-backoff-max=",
                "--supervisor-ledger=",
                "--heartbeat=",
            )
        ):
            continue
        child.append(arg)
    return child


class ServeSupervisor:
    """Fork, watch, restart — the self-healing loop around one daemon.

    ``child_argv`` is the full command line of one incarnation; tests
    substitute tiny scripted children to exercise the policy without
    booting a real daemon.  ``heartbeat_path`` is passed to the child
    via ``--heartbeat`` only when ``wire_heartbeat`` is True (real
    daemons); scripted children ignore it.
    """

    def __init__(
        self,
        child_argv,
        heartbeat_path=None,
        heartbeat_timeout=15.0,
        max_restarts=5,
        restart_window=30.0,
        backoff=0.2,
        backoff_max=5.0,
        stable_seconds=10.0,
        poll_interval=0.1,
        ledger_path=None,
        wire_heartbeat=True,
        out=None,
    ):
        self.child_argv = list(child_argv)
        self.heartbeat_path = heartbeat_path
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.max_restarts = max(1, int(max_restarts))
        self.restart_window = float(restart_window)
        self.backoff = max(0.01, float(backoff))
        self.backoff_max = max(self.backoff, float(backoff_max))
        #: An incarnation that survived this long resets the backoff.
        self.stable_seconds = float(stable_seconds)
        self.poll_interval = max(0.01, float(poll_interval))
        self.ledger_path = ledger_path
        self.wire_heartbeat = wire_heartbeat
        self.out = out
        self._child = None
        self._restart_times = []
        self._stop_requested = None  # the forwarded signal number
        #: Lifecycle events: spawn/exit/hang-kill/restart/give-up dicts.
        self.events = []
        self.restarts = 0

    # -- event ledger ----------------------------------------------------------

    def _event(self, kind, **detail):
        entry = dict(detail, event=kind)
        self.events.append(entry)
        if self.out is not None:
            print(
                "supervisor: %s %s"
                % (
                    kind,
                    " ".join(
                        "%s=%s" % item for item in sorted(detail.items())
                    ),
                ),
                file=self.out,
                flush=True,
            )
        self._write_ledger()

    def _write_ledger(self):
        if not self.ledger_path:
            return
        try:
            with open(self.ledger_path, "w") as handle:
                json.dump(
                    {"restarts": self.restarts, "events": self.events},
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
        except OSError:
            pass

    # -- child lifecycle -------------------------------------------------------

    def _spawn(self):
        argv = list(self.child_argv)
        if self.wire_heartbeat and self.heartbeat_path:
            argv += ["--heartbeat", self.heartbeat_path]
            # A fresh incarnation must prove liveness itself; a stale
            # file from the previous one must not vouch for it.
            try:
                os.unlink(self.heartbeat_path)
            except OSError:
                pass
        self._child = subprocess.Popen(argv)
        self._event("spawn", pid=self._child.pid, incarnation=self.restarts)
        return self._child

    def _heartbeat_age(self):
        """Seconds since the child last touched its heartbeat, or None
        when heartbeats are not wired / the file has not appeared yet
        (boot is covered by the spawn time instead)."""
        if not (self.wire_heartbeat and self.heartbeat_path):
            return None
        try:
            return time.time() - os.stat(self.heartbeat_path).st_mtime
        except OSError:
            return None

    def _kill_child(self, signum=signal.SIGKILL, reason="stop"):
        if self._child is None or self._child.poll() is not None:
            return
        self._event(
            "kill", pid=self._child.pid, signal=int(signum), reason=reason
        )
        try:
            self._child.send_signal(signum)
        except OSError:
            pass

    def _install_signal_forwarding(self):
        def forward(signum, frame):
            self._stop_requested = signum
            if self._child is not None and self._child.poll() is None:
                try:
                    self._child.send_signal(signum)
                except OSError:
                    pass

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, forward)

    # -- the supervision loop --------------------------------------------------

    def run(self, install_signals=True):
        """Supervise until the child stops on purpose, the supervisor is
        signalled, or the crash loop trips.  Returns the exit code."""
        if install_signals:
            self._install_signal_forwarding()
        while True:
            spawned_at = time.monotonic()
            child = self._spawn()
            exit_code = self._watch(child, spawned_at)
            if self._stop_requested is not None:
                self._event(
                    "stopped", signal=int(self._stop_requested),
                    exit_code=exit_code,
                )
                return exit_code if exit_code is not None else 0
            if exit_code in _NO_RESTART_EXITS:
                self._event("finished", exit_code=exit_code)
                return exit_code
            lifetime = time.monotonic() - spawned_at
            if lifetime >= self.stable_seconds:
                # A long stable run forgives earlier flapping.
                self._restart_times.clear()
            now = time.monotonic()
            self._restart_times = [
                stamp
                for stamp in self._restart_times
                if now - stamp <= self.restart_window
            ]
            if len(self._restart_times) >= self.max_restarts:
                self._event(
                    "give-up",
                    restarts_in_window=len(self._restart_times),
                    window_seconds=self.restart_window,
                )
                return EXIT_CRASHLOOP
            self._restart_times.append(now)
            self.restarts += 1
            delay = min(
                self.backoff * (2.0 ** (len(self._restart_times) - 1)),
                self.backoff_max,
            )
            self._event(
                "restart",
                exit_code=exit_code,
                lifetime_seconds=round(lifetime, 3),
                backoff_seconds=round(delay, 3),
            )
            if self._sleep_interruptible(delay):
                self._event("stopped", signal=int(self._stop_requested))
                return 0

    def _watch(self, child, spawned_at):
        """Block until this incarnation exits (on its own, by forwarded
        signal, or by our hang-kill).  Returns its exit code."""
        while True:
            code = child.poll()
            if code is not None:
                self._event(
                    "exit",
                    pid=child.pid,
                    exit_code=code,
                    lifetime_seconds=round(
                        time.monotonic() - spawned_at, 3
                    ),
                )
                return code
            if self._stop_requested is not None:
                try:
                    return child.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self._kill_child(reason="drain-timeout")
                    return child.wait()
            age = self._heartbeat_age()
            if (
                age is not None
                and self.heartbeat_timeout > 0
                and age > self.heartbeat_timeout
            ):
                # Alive pid, dead heartbeat: wedged.  Turn it into a
                # crash and let the restart path handle it.
                self._kill_child(reason="heartbeat-stale")
                child.wait()
                continue
            time.sleep(self.poll_interval)

    def _sleep_interruptible(self, delay):
        """Backoff sleep that still honours a forwarded stop signal.
        True when a stop arrived during the sleep."""
        deadline = time.monotonic() + delay
        while time.monotonic() < deadline:
            if self._stop_requested is not None:
                return True
            time.sleep(min(self.poll_interval, delay))
        return self._stop_requested is not None
