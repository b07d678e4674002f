"""Invariant sentinels: one fuzz case through the full pipeline.

A case *violates* a sentinel when the pipeline breaks one of the
properties the rest of the repo treats as contracts:

* **no-crash** — no exception escapes ``run_on_sources`` (hostile input
  must cost quarantines, never the process);
* **deadline** — the case completes within its wall budget;
* **ledger** — every failure record uses the documented stage and
  disposition vocabularies;
* **marginals** — every reported boundary marginal is finite, within
  [0, 1], and normalized (sums to 1);
* **engine-differential** — loopy ≡ compiled, bit-identically;
* **tier-differential** — full ≡ auto checker tiers, bit-identically.

Differentials run only on *survivors* (cases whose baseline run is
failure-free): a quarantined case has no meaningful cross-run contract.
Each survivor also runs once under the ``serial`` schedule, held to the
no-crash and marginals sentinels; it is not compared with the worklist,
because the two schedules' visit trajectories legitimately differ.
"""

import math
import time
from dataclasses import dataclass, field

from repro.core.infer import InferenceSettings
from repro.core.pipeline import AnekPipeline
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import DISPOSITIONS, STAGES

#: Survivors larger than this skip the differential sentinels — the
#: giant-method family would otherwise quintuple campaign wall time for
#: a contract the small survivors already pin down every cycle.
DIFFERENTIAL_MAX_CHARS = 8_000


@dataclass
class CaseReport:
    """What one case did under the sentinels."""

    case: object
    violations: list = field(default_factory=list)
    seconds: float = 0.0
    #: Baseline run finished failure-free (differentials applied).
    survivor: bool = False
    #: disposition -> count over the baseline ledger.
    dispositions: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations


def _run_pipeline(sources, engine="compiled", executor="worklist",
                  check_tier="auto"):
    settings = InferenceSettings(
        engine=engine,
        executor=executor,
        policy=ResiliencePolicy(),
    )
    pipeline = AnekPipeline(
        settings=settings, cache=None, check_tier=check_tier
    )
    return pipeline.run_on_sources(list(sources))


def _check_marginals(result, violations):
    for ref, boundary in result.boundary_marginals.items():
        for (slot, target), marginal in boundary.items():
            for axis in ("kind", "state"):
                distribution = getattr(marginal, axis)
                if distribution is None:
                    continue
                values = list(distribution.values())
                if any(
                    not math.isfinite(value) for value in values
                ):
                    violations.append(
                        "marginals: non-finite %s marginal at %s %s/%s"
                        % (axis, ref.qualified_name, slot, target)
                    )
                    continue
                if any(value < -1e-9 or value > 1 + 1e-9 for value in values):
                    violations.append(
                        "marginals: %s marginal outside [0,1] at %s %s/%s"
                        % (axis, ref.qualified_name, slot, target)
                    )
                if values and abs(sum(values) - 1.0) > 1e-6:
                    violations.append(
                        "marginals: %s marginal not normalized at %s %s/%s "
                        "(sum=%r)"
                        % (axis, ref.qualified_name, slot, target, sum(values))
                    )


def _check_ledger(result, violations):
    for record in result.failures:
        if record.stage not in STAGES:
            violations.append(
                "ledger: unknown stage %r in %s" % (record.stage, record.format())
            )
        if record.disposition not in DISPOSITIONS:
            violations.append(
                "ledger: unknown disposition %r in %s"
                % (record.disposition, record.format())
            )


def run_case(case, deadline=30.0, differential=True):
    """Run one case under every sentinel; returns a :class:`CaseReport`."""
    report = CaseReport(case=case)
    sources = case.pipeline_sources()
    start = time.perf_counter()
    try:
        result = _run_pipeline(sources)
    except Exception as exc:  # the no-crash sentinel
        report.seconds = time.perf_counter() - start
        report.violations.append(
            "no-crash: uncaught %s: %s" % (type(exc).__name__, exc)
        )
        return report
    report.seconds = time.perf_counter() - start
    if deadline and report.seconds > deadline:
        report.violations.append(
            "deadline: case took %.1fs (budget %.1fs)"
            % (report.seconds, deadline)
        )
    _check_ledger(result, report.violations)
    _check_marginals(result, report.violations)
    for record in result.failures:
        report.dispositions[record.disposition] = (
            report.dispositions.get(record.disposition, 0) + 1
        )
    report.survivor = result.failures.is_clean
    if not (differential and report.survivor):
        return report
    if sum(len(source) for source in sources) > DIFFERENTIAL_MAX_CHARS:
        return report
    baseline = result.canonical_json(include_marginals=True)
    try:
        loopy = _run_pipeline(sources, engine="loopy")
        if loopy.canonical_json(include_marginals=True) != baseline:
            report.violations.append(
                "engine-differential: loopy != compiled"
            )
        _check_marginals(
            _run_pipeline(sources, executor="serial"), report.violations
        )
        full = _run_pipeline(sources, check_tier="full")
        if full.canonical_json(include_marginals=True) != baseline:
            report.violations.append(
                "tier-differential: full != auto"
            )
    except Exception as exc:
        report.violations.append(
            "no-crash: uncaught %s in differential run: %s"
            % (type(exc).__name__, exc)
        )
    report.seconds = time.perf_counter() - start
    return report
