"""The per-solve guard: divergence detection and the retry ladder.

One method solve under the guard walks the policy's degradation ladder::

    attempt 0   configured engine, the fixed BP damping
    retry 1..N  same engine, escalating damping (oscillation killer)
    floor       prior-only marginals (never fails)

A compiled solve whose kernel cannot be built or raises falls back to
the loopy engine inside :meth:`repro.core.model.MethodModel.solve`, at
the attempt's own damping, so the ladder needs no engine rung.

An attempt *fails* when it raises or produces non-finite (NaN/inf) or
engine-flagged diverged marginals.  On the zero-failure path the guard
adds only a finiteness scan over the final marginals — the solve itself
runs with exactly the fixed BP parameters, so resilient and
non-resilient runs are bit-identical.

The guard emits at most one :class:`FailureRecord` per solve: either
``recovered`` (a retry produced clean marginals — results unchanged) or
``degraded-prior-only`` (the floor was reached).
"""

import numpy as np

from repro.core.infer import BP_DAMPING, BP_ITERS, BP_TOLERANCE
from repro.factorgraph.sumproduct import SumProductResult
from repro.resilience.faults import maybe_fault
from repro.resilience.report import FailureRecord


def result_is_finite(result):
    """True when every marginal is finite and no engine flagged NaN/inf."""
    if getattr(result, "diverged", False):
        return False
    for vector in result.marginals.values():
        if not np.isfinite(vector).all():
            return False
    return True


def prior_only_result(graph):
    """The conservative floor: every variable's marginal is its prior.

    Deterministic, engine-free, and never fails — boundary marginals
    extracted from it threshold into the method's prior-implied spec
    (usually the empty ⊤-permission spec for unannotated methods).
    """
    marginals = {}
    for name, variable in graph.variables.items():
        prior = np.asarray(variable.prior, dtype=float)
        total = prior.sum()
        if total <= 0 or not np.isfinite(total):
            marginals[name] = np.full(
                variable.cardinality, 1.0 / variable.cardinality
            )
        else:
            marginals[name] = prior / total
    return SumProductResult(marginals, 0, False, float("inf"))


def _poison(result):
    """Inject NaNs into a result (the ``nan`` fault kind): exercises the
    same detection path a genuinely diverging sweep would take."""
    for name in result.marginals:
        result.marginals[name] = np.full_like(
            result.marginals[name], np.nan
        )
        break
    result.diverged = True
    return result


#: Damping floor of the escalating retries: each retry after the first
#: moves a third of the remaining distance from it toward 0.9.
RETRY_DAMPING = 0.5


def _attempt_ladder(policy):
    """The damping of each attempt, attempt 0 first.

    The first retry reruns with *identical* parameters: a transient
    failure (an injected raise, a killed sweep) then recovers with
    bit-identical marginals.  Only later retries escalate damping, for
    genuinely oscillating/diverging solves where sameness is lost anyway.
    """
    ladder = [BP_DAMPING]
    if policy.solve_retries >= 1:
        ladder.append(BP_DAMPING)
    floor = max(RETRY_DAMPING, BP_DAMPING)
    step = (0.9 - floor) / 3.0
    for attempt in range(2, policy.solve_retries + 1):
        ladder.append(min(0.9, floor + step * (attempt - 2)))
    return ladder


def guarded_solve(model, policy, site_key, engine):
    """Run one method solve under the policy's degradation ladder.

    Returns ``(result, record, degraded)`` where ``record`` is None on
    the clean path, a ``recovered`` record when a retry saved the solve,
    or a ``degraded-prior-only`` record when the floor was reached.
    """
    if policy is None or not policy.enabled:
        return (
            model.solve(
                max_iters=BP_ITERS,
                damping=BP_DAMPING,
                tolerance=BP_TOLERANCE,
                engine=engine,
            ),
            None,
            False,
        )
    reasons = []
    ladder = _attempt_ladder(policy)
    for attempt, damping in enumerate(ladder):
        try:
            action = maybe_fault("solve", site_key)
            result = model.solve(
                max_iters=BP_ITERS,
                damping=damping,
                tolerance=BP_TOLERANCE,
                engine=engine,
            )
            if action == "nan":
                result = _poison(result)
        except Exception as exc:
            reasons.append(
                "%s[%s]: %s: %s" % (engine, damping, type(exc).__name__, exc)
            )
            continue
        if not result_is_finite(result):
            reasons.append(
                "%s[%s]: diverged (non-finite marginals)" % (engine, damping)
            )
            continue
        if attempt == 0:
            return result, None, False
        record = FailureRecord(
            stage="solve",
            key=site_key,
            error=reasons[0].split(": ", 1)[-1] if reasons else "unknown",
            message="; ".join(reasons),
            disposition="recovered",
            retries=attempt,
        )
        return result, record, False
    record = FailureRecord(
        stage="solve",
        key=site_key,
        error=reasons[0].split(": ", 1)[-1] if reasons else "unknown",
        message="; ".join(reasons),
        disposition="degraded-prior-only",
        retries=max(len(ladder) - 1, 0),
    )
    return prior_only_result(model.graph), record, True
