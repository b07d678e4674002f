"""Deterministic fault injection: the test harness for every recovery path.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers.  Each
instrumented pipeline site calls :func:`maybe_fault` with its stage name
and the stable key of its unit of work; a matching spec then *acts* —
raising, corrupting, delaying, or killing the process — exactly
``count`` times.
Matching is purely declarative (stage equality + key substring), so a
plan is deterministic: the same plan over the same corpus fires at the
same sites in the same order on every run.

Plans install two ways:

* in-process: ``install_fault_plan(plan)`` (tests, benchmarks);
* across processes: the ``REPRO_FAULTS`` environment variable carries
  the JSON encoding (``plan.to_json()``), parsed lazily by any process
  — CLI subprocess tests, a supervised serve daemon — that has no
  in-process plan installed.

Every process parses its own copy of the plan, so a spec with
``count=1`` re-arms in every process generation (each daemon a
supervisor restarts).  For once-only semantics across generations give
the spec a ``marker`` path: the first firing atomically claims the
marker file and later processes see it and stand down.

Fault kinds:

``raise``
    Raise :class:`InjectedFault` at the site.
``nan``
    Return the token ``"nan"`` — the solve guard responds by poisoning
    the attempt's marginals with NaN, exercising divergence detection.
``delay``
    Sleep ``seconds`` then continue (deadline paths).
``killproc``
    ``SIGKILL`` the **whole current process** — fired at ``solve`` it
    simulates an OOM-kill or node preemption of a run mid-way, after
    which rerunning it against the same cache must replay every
    finished visit; fired at ``serve-admit``/``serve-respond`` it kills
    the daemon mid-request.
"""

import json
import os
import signal
import time
from dataclasses import asdict, dataclass

#: Environment variable carrying a JSON-encoded plan for subprocesses.
ENV_VAR = "REPRO_FAULTS"

#: Recognized fault kinds.
KINDS = ("raise", "nan", "delay", "killproc")

#: Instrumented stages (matching :data:`repro.resilience.report.STAGES`
#: where injection makes sense).  ``solve`` fires before every solve
#: attempt of a visit (never for a replayed or skipped visit), and
#: ``serve`` inside the daemon's request handler (the key is
#: ``req:<id>:<work fingerprint prefix>``) — a fault there must cost
#: exactly one response, never the daemon.
#:
#: The **server-kill** sites arm whole-daemon chaos: ``serve-admit``
#: fires in the front end after a request is admitted but before any
#: response exists, and ``serve-respond`` fires after execution, after
#: the completed-work store, *before* the response frame is written.
#: A ``killproc`` fault at either SIGKILLs the daemon at the two
#: nastiest points of the request lifecycle; with the supervisor
#: restarting it and client retries, both must still converge to every
#: request succeeding (``tests/test_serve_chaos.py``).
STAGES = (
    "parse",
    "pfg",
    "constraints",
    "solve",
    "serve",
    "serve-admit",
    "serve-respond",
    "check",
)


class InjectedFault(RuntimeError):
    """The exception raised by ``raise``-kind faults."""

    def __init__(self, stage, key):
        self.stage = stage
        self.key = key
        super().__init__("injected fault at %s: %s" % (stage, key))


@dataclass
class FaultSpec:
    """One trigger: where to fire, what to do, how often."""

    #: Stage name (exact match against the instrumentation site).
    stage: str
    #: Substring matched against the site's work-unit key (method key,
    #: ``unit:<index>`` tag).  Empty string matches everything.
    key: str
    #: One of :data:`KINDS`.
    kind: str = "raise"
    #: Firings before the spec burns out; negative = unlimited.
    count: int = 1
    #: Matching sites to *pass over* before the spec arms — ``skip=2``
    #: fires at the third matching site, giving chaos tests a way to aim
    #: a kill at a deterministic mid-run point (after the N-th solve)
    #: without naming it.
    skip: int = 0
    #: Sleep duration for ``delay`` faults.
    seconds: float = 0.0
    #: Optional marker-file path: the fault fires only if it can claim
    #: the marker (atomic ``open(..., "x")``), making it once-only
    #: across process generations.
    marker: str = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(
                "unknown fault stage %r (expected one of %s)"
                % (self.stage, ", ".join(STAGES))
            )
        if self.kind not in KINDS:
            raise ValueError(
                "unknown fault kind %r (expected one of %s)"
                % (self.kind, ", ".join(KINDS))
            )


class FaultPlan:
    """An ordered set of fault triggers plus a log of what fired."""

    def __init__(self, specs=()):
        self.specs = [
            spec if isinstance(spec, FaultSpec) else FaultSpec(**spec)
            for spec in specs
        ]
        #: (stage, key, kind) tuples, in firing order — the view of the
        #: process that fired them.
        self.fired = []

    # -- (de)serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps([asdict(spec) for spec in self.specs])

    @classmethod
    def from_json(cls, text):
        return cls(json.loads(text))

    def env(self):
        """{ENV_VAR: json} — merge into a subprocess environment."""
        return {ENV_VAR: self.to_json()}

    # -- firing ----------------------------------------------------------------

    def fire(self, stage, key):
        """Act on the first armed spec matching this site, if any.

        Returns ``None`` (no match / ``delay`` completed) or the token
        ``"nan"``; raises :class:`InjectedFault` for ``raise`` faults;
        never returns for ``killproc``.
        """
        for spec in self.specs:
            if spec.stage != stage or spec.count == 0:
                continue
            if spec.key and spec.key not in key:
                continue
            if spec.skip > 0:
                spec.skip -= 1
                continue
            if spec.marker is not None and not _claim_marker(spec.marker):
                continue
            if spec.count > 0:
                spec.count -= 1
            self.fired.append((stage, key, spec.kind))
            if spec.kind == "raise":
                raise InjectedFault(stage, key)
            if spec.kind == "delay":
                time.sleep(spec.seconds)
                return None
            if spec.kind == "killproc":
                os.kill(os.getpid(), signal.SIGKILL)
            return "nan"
        return None


def _claim_marker(path):
    """Atomically claim a once-only marker file."""
    try:
        with open(path, "x"):
            return True
    except FileExistsError:
        return False
    except OSError:
        # Unwritable marker location: fail open (never fire) rather
        # than fault every process generation forever.
        return False


#: The installed plan of this process (None = check the environment).
_PLAN = None


def install_fault_plan(plan):
    """Install a plan for this process; returns it for chaining."""
    global _PLAN
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan(plan)
    _PLAN = plan
    return plan


def clear_fault_plan():
    """Remove the in-process plan (the env hook re-arms if still set)."""
    global _PLAN
    _PLAN = None


def current_plan():
    """The in-process plan, falling back to the ``REPRO_FAULTS`` env."""
    global _PLAN
    if _PLAN is None:
        text = os.environ.get(ENV_VAR)
        if text:
            _PLAN = FaultPlan.from_json(text)
    return _PLAN


def maybe_fault(stage, key):
    """The instrumentation hook: a near-free no-op without a plan."""
    if _PLAN is None and ENV_VAR not in os.environ:
        return None
    plan = current_plan()
    if plan is None:
        return None
    return plan.fire(stage, key)
