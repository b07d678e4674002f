"""Fault tolerance for the ANEK pipeline.

The paper's pitch (§3.4) is that inference is probabilistic and
*forgiving*: partial or imperfect evidence still yields usable specs.
This package makes the runtime match that story — one malformed
compilation unit or one diverging BP solve degrades only its own
corner of the corpus instead of aborting the run:

* :mod:`repro.resilience.report` — the structured failure ledger
  (:class:`FailureRecord` / :class:`FailureReport`) surfaced on
  ``PipelineResult.failure_report`` and ``--fail-report``;
* :mod:`repro.resilience.policy` — :class:`ResiliencePolicy`, the knobs
  of the degradation ladder (retry counts, resource budgets);
* :mod:`repro.resilience.guard` — the per-solve guard: NaN/inf
  detection, retry with escalating damping, then the prior-only floor;
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (seeded plans that raise/delay/corrupt/kill at named stages,
  installable in-process or via the ``REPRO_FAULTS`` env hook) that
  makes every recovery path above testable in CI;
* :mod:`repro.resilience.shutdown` — the stop request between two
  visits of a cached run: SIGTERM/SIGINT or an RSS reading over
  ``max_rss_mb`` stop it with :class:`RunInterrupted` (exit code 5),
  and rerunning the same command continues it from the analysis cache,
  which already holds every finished visit.
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    clear_fault_plan,
    install_fault_plan,
    maybe_fault,
)
from repro.resilience.limits import (
    ResourceLimitError,
    ResourceLimits,
    recursion_guard,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import FailureRecord, FailureReport
from repro.resilience.shutdown import (
    RunInterrupted,
    clear_shutdown,
    graceful_shutdown,
    request_shutdown,
    shutdown_requested,
)

__all__ = [
    "FailureRecord",
    "FailureReport",
    "ResiliencePolicy",
    "ResourceLimitError",
    "ResourceLimits",
    "recursion_guard",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "install_fault_plan",
    "clear_fault_plan",
    "maybe_fault",
    "RunInterrupted",
    "graceful_shutdown",
    "shutdown_requested",
    "request_shutdown",
    "clear_shutdown",
]
