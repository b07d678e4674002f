"""The resilience policy: every knob of the degradation ladder.

A frozen dataclass of primitives, so it pickles inside
:class:`repro.core.infer.InferenceSettings` and fingerprints
deterministically.  The policy deliberately does **not**
participate in cache config digests: with zero faults a resilient run is
bit-identical to a non-resilient one, so artifacts are shared across
policy settings.
"""

from dataclasses import dataclass, field

from repro.resilience.limits import ResourceLimitError, ResourceLimits
from repro.resilience.report import record_from_exception


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the fault-tolerance layer.

    The degradation ladder for one method solve::

        attempt 0   configured engine, the fixed BP damping
        retry 1..N  same engine, damping escalated toward 0.9
        floor       prior-only marginals (never fails, fully conservative)
    """

    #: Master switch.  Disabled = legacy behaviour: any exception aborts
    #: the whole run (kept for debugging and bisection).
    enabled: bool = True
    #: Wall-clock budget for one solve attempt, in seconds (0 = none).
    #: Checked *after* the sweep — BP runs a bounded number of
    #: iterations, so a blown budget means the retry ladder shrinks the
    #: next attempt rather than an in-flight preemption.
    solve_deadline: float = 0.0
    #: Same-engine re-solves with escalated damping before the prior-only
    #: floor (:data:`repro.resilience.guard.RETRY_DAMPING` is the
    #: escalation's floor).
    solve_retries: int = 2
    #: Resource budgets for every untrusted-input stage (lexer, parser,
    #: PFG builder, factor graph, worklist).  Checks are pure threshold
    #: comparisons; a breach quarantines the unit of work with the
    #: ``resource-limit`` disposition.  Governance applies even when the
    #: master ``enabled`` switch is off — limits protect the *process*,
    #: not just resilient runs — and is turned off only via
    #: ``ResourceLimits.disabled()``.
    limits: ResourceLimits = field(default_factory=ResourceLimits)

    def __post_init__(self):
        if self.solve_deadline < 0:
            raise ValueError("solve_deadline must be >= 0")
        if self.solve_retries < 0:
            raise ValueError("solve_retries must be >= 0")

    @classmethod
    def disabled(cls):
        """The legacy all-or-nothing behaviour."""
        return cls(enabled=False)

    def quarantine_record(self, stage, key, exc, disposition):
        """The one quarantine rule of every isolating stage.

        Called from inside an ``except`` block: re-raises ``exc`` unless
        the policy is enabled or ``exc`` is a resource-budget breach
        (limits protect the process, so they quarantine even with the
        policy off).  Otherwise returns the :class:`FailureRecord` to
        log, with the ``resource-limit`` disposition for a breach and
        the stage's own ``disposition`` for anything else.
        """
        breach = isinstance(exc, ResourceLimitError)
        if not (self.enabled or breach):
            raise exc
        return record_from_exception(
            stage, key, exc, "resource-limit" if breach else disposition
        )
