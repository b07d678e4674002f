"""The end-to-end ANEK pipeline (paper Figure 10).

Mirrors the paper's architecture: the *extractor* (our parser + resolver)
produces the abstract representation, the *constraint generators* build
the probabilistic models, ANEK-INFER solves them, and the *applier*
writes the inferred annotations back into the program — which can then
be checked with PLURAL.
"""

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.applier import apply_specs, render_annotated_sources
from repro.core.extract import count_clauses, count_nonempty
from repro.core.heuristics import HeuristicConfig
from repro.core.infer import AnekInference, InferenceSettings
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.plural.checker import run_check
from repro.resilience.faults import maybe_fault
from repro.resilience.report import FailureReport


@dataclass
class StageTrace:
    """One pipeline stage, for the Figure 10 architecture trace."""

    name: str
    seconds: float
    detail: str = ""
    #: Nested traces (e.g. scheduler levels inside anek-infer) are shown
    #: in the stage listing but excluded from ``total_seconds``.
    nested: bool = False


@dataclass
class PipelineResult:
    """Everything the pipeline produces."""

    program: object = None
    specs: dict = field(default_factory=dict)
    #: qualified names of methods whose specs pre-existed inference
    #: (declared directly or inherited from an annotated supertype).
    preannotated_methods: set = field(default_factory=set)
    warnings: list = field(default_factory=list)
    annotated_sources: List[str] = field(default_factory=list)
    stages: List[StageTrace] = field(default_factory=list)
    inference_stats: Optional[object] = None
    #: {method_ref: {(slot, target): TargetMarginal}} — the raw boundary
    #: marginals inference produced, kept so consumers (the serve layer,
    #: the differential harness) can compare runs at float precision
    #: rather than only through thresholded specs.
    boundary_marginals: dict = field(default_factory=dict)
    #: Persistent-cache counter movement for this run, check included
    #: (a CacheStats delta), or None when the pipeline ran without a
    #: cache.
    cache_stats: Optional[object] = None
    #: The checker's :class:`repro.plural.checker.CheckRun` (tier split,
    #: sites, seconds), or None when the checker did not run or was
    #: skipped.
    check: Optional[object] = None
    #: The resilience ledger: every isolation/retry/degradation event of
    #: this run (empty on a clean run).
    failures: FailureReport = field(default_factory=FailureReport)

    @property
    def degraded(self):
        """True when any failure changed the run's output (quarantined
        units/methods, prior-only solves, skipped stages)."""
        return self.failures.has_degradation

    @property
    def inferred_annotation_count(self):
        return count_nonempty(self.specs)

    @property
    def inferred_clause_count(self):
        return count_clauses(self.specs)

    @property
    def total_seconds(self):
        return sum(
            stage.seconds for stage in self.stages if not stage.nested
        )

    def describe_stages(self):
        lines = ["ANEK pipeline (paper Figure 10):"]
        for stage in self.stages:
            lines.append(
                "  %-22s %8.3f s  %s" % (stage.name, stage.seconds, stage.detail)
            )
        return "\n".join(lines)

    def canonical_payload(self, include_marginals=False):
        """The run's *answer* as plain JSON-serializable data.

        Everything that identifies what the pipeline concluded — the
        thresholded specs, the checker warnings, the degradation flag —
        and (optionally) the raw boundary marginals, whose floats survive
        a JSON round-trip exactly (``repr``-based float formatting).
        Deliberately excludes timings, stats, and stage traces: two runs
        over the same input are *bit-identical* exactly when their
        canonical payloads are, which is the contract the serving layer
        and the differential harness assert.
        """
        from repro.java.symbols import method_key

        specs = [
            {
                "key": method_key(ref),
                "name": ref.qualified_name,
                "spec": str(spec),
            }
            for ref, spec in sorted(
                self.specs.items(),
                key=lambda kv: (kv[0].qualified_name, method_key(kv[0])),
            )
            if not spec.is_empty
        ]
        payload = {
            "specs": specs,
            "preannotated": sorted(self.preannotated_methods),
            "warnings": [warning.format() for warning in self.warnings],
            "annotations": self.inferred_annotation_count,
            "clauses": self.inferred_clause_count,
            "degraded": self.degraded,
        }
        if include_marginals:
            marginals = {}
            for ref, boundary in self.boundary_marginals.items():
                entry = {}
                for (slot, target), marginal in sorted(boundary.items()):
                    entry["%s/%s" % (slot, target)] = marginal.to_payload()
                marginals[method_key(ref)] = entry
            payload["marginals"] = marginals
        return payload

    def canonical_json(self, include_marginals=False):
        """The canonical payload as one deterministic JSON string."""
        return json.dumps(
            self.canonical_payload(include_marginals=include_marginals),
            sort_keys=True,
            separators=(",", ":"),
        )


class AnekPipeline:
    """Drives parse -> infer -> apply -> check."""

    def __init__(self, config=None, settings=None, run_checker=True,
                 apply_annotations=True, cache=None, check_tier="auto"):
        self.config = config or HeuristicConfig()
        self.settings = settings or InferenceSettings()
        self.run_checker = run_checker
        self.apply_annotations = apply_annotations
        #: An :class:`repro.cache.AnalysisCache`, or None (no persistence).
        self.cache = cache
        #: Checker dispatch: "full" runs the fractional-permission
        #: checker on every method, "auto" proves what it can with the
        #: vectorized tier-1 pass first.  Warning output is bit-identical
        #: across tiers; "full" is the reference tests and benchmarks
        #: select here, with no CLI or serve switch.
        self.check_tier = check_tier

    def resolve_sources(self, sources, failures):
        """Parse and resolve raw sources under isolation; returns
        ``(program, units, parse_hits)``.

        A unit whose lex/parse crashes or breaches a resource budget is
        quarantined (``unit:<index>``) into ``failures`` and the rest
        proceed.  Resolution failures re-resolve incrementally and
        quarantine exactly the units resolution chokes on; that pass is
        O(n^2) but runs only on the failure path.  ``parse_hits`` counts
        units the cache served.
        """
        policy = self.settings.effective_policy()
        units = []
        parse_hits = 0
        for index, source in enumerate(sources):
            unit_key = "unit:%d" % index
            hits_before = (
                self.cache.stats.parse_hits if self.cache is not None else 0
            )
            try:
                if policy.enabled:
                    maybe_fault("parse", unit_key)
                if self.cache is not None:
                    unit = self.cache.parse(source, limits=policy.limits)
                else:
                    unit = parse_compilation_unit(source, limits=policy.limits)
            except Exception as exc:
                failures.add(
                    policy.quarantine_record(
                        "parse", unit_key, exc, "unit-quarantined"
                    )
                )
                continue
            if self.cache is not None:
                parse_hits += self.cache.stats.parse_hits - hits_before
            units.append(unit)
        try:
            return resolve_program(units), units, parse_hits
        except Exception:
            if not policy.enabled:
                raise
        kept = []
        program = resolve_program([])
        for index, unit in enumerate(units):
            try:
                program = resolve_program(kept + [unit])
            except Exception as exc:
                failures.record(
                    "resolve", "unit:%d" % index, exc, "unit-quarantined"
                )
                continue
            kept.append(unit)
        return program, kept, parse_hits

    def run_on_sources(self, sources):
        """Run the pipeline over raw Java source strings."""
        result = PipelineResult()
        run_before = (
            self.cache.stats.snapshot() if self.cache is not None else None
        )
        start = time.perf_counter()
        program, units, parse_hits = self.resolve_sources(
            sources, result.failures
        )
        cache_detail = (
            ", cache %d/%d units" % (parse_hits, len(units))
            if self.cache is not None
            else ""
        )
        result.program = program
        result.stages.append(
            StageTrace(
                "extractor",
                time.perf_counter() - start,
                "%d units, %d classes%s"
                % (len(units), len(program.classes), cache_detail),
            )
        )
        return self._run_rest(program, result, run_before)

    def run_on_program(self, program):
        """Run the pipeline over an already-resolved program."""
        result = PipelineResult()
        run_before = (
            self.cache.stats.snapshot() if self.cache is not None else None
        )
        result.program = program
        result.stages.append(
            StageTrace("extractor", 0.0, "pre-resolved program")
        )
        return self._run_rest(program, result, run_before)

    def _run_rest(self, program, result, run_before):
        # Constraint generation + inference (Figure 10's two generators
        # plus INFER.NET are one stage here; stats break them down).
        start = time.perf_counter()
        inference = AnekInference(
            program,
            self.config,
            self.settings,
            cache=self.cache,
            failures=result.failures,
        )
        marginals = inference.run()
        result.boundary_marginals = marginals
        result.inference_stats = inference.stats
        stats = inference.stats
        if stats.warm_start:
            detail = "%d methods, warm start (full run restored from cache)" % (
                stats.methods
            )
        else:
            detail = "%d methods, %d solves, %d factors" % (
                stats.methods,
                stats.solves,
                stats.factors,
            )
            detail += ", engine=%s (%d built, %d reused, %d skipped" % (
                stats.engine,
                stats.builds,
                stats.reuses,
                stats.skips,
            )
            if stats.replays:
                detail += ", %d replayed" % stats.replays
            detail += "; build %.3fs, kernel %.3fs)" % (
                stats.build_seconds,
                stats.solve_seconds,
            )
        if run_before is not None:
            # Run-wide: parsing moves no pfg or solve counter.
            moved = self.cache.stats.delta(run_before)
            detail += ", cache[pfg %d/%d, solve %d hit/%d miss]" % (
                moved.pfg_hits,
                moved.pfg_hits + moved.pfg_misses,
                moved.solve_hits,
                moved.solve_misses,
            )
        if stats.executor != "worklist" and not stats.warm_start:
            detail += ", executor=%s (%d levels, %d rounds)" % (
                stats.executor,
                stats.levels,
                stats.rounds,
            )
        result.stages.append(
            StageTrace("anek-infer", time.perf_counter() - start, detail)
        )
        # Per-level trace of the serial schedule (empty for the worklist).
        for entry in stats.schedule:
            result.stages.append(
                StageTrace(
                    "  level %d.%d" % (entry["round"], entry["level"]),
                    entry["seconds"],
                    "%d methods" % entry["methods"],
                    nested=True,
                )
            )
        start = time.perf_counter()
        result.specs = inference.extract_specs(marginals)
        result.preannotated_methods = {
            ref.qualified_name
            for ref in result.specs
            if inference.spec_env.is_annotated(ref)
        }
        result.stages.append(
            StageTrace(
                "extract-specs",
                time.perf_counter() - start,
                "%d methods annotated" % count_nonempty(result.specs),
            )
        )
        # Verdicts are keyed by the sources as written, so their
        # fingerprints are taken before the applier writes specs in.
        verdicts = None
        if (
            self.run_checker
            and self.check_tier == "auto"
            and inference.cache is not None
        ):
            from repro.cache.manager import CheckVerdicts

            verdicts = CheckVerdicts(inference.cache, inference.callees)
        policy = self.settings.effective_policy()
        if self.apply_annotations:
            start = time.perf_counter()
            try:
                apply_specs(program, result.specs)
                result.annotated_sources = render_annotated_sources(program)
                detail = "%d source files rendered" % len(
                    result.annotated_sources
                )
            except Exception as exc:
                result.failures.add(
                    policy.quarantine_record(
                        "applier", "program", exc, "stage-skipped"
                    )
                )
                detail = "skipped (%s)" % type(exc).__name__
            result.stages.append(
                StageTrace("applier", time.perf_counter() - start, detail)
            )
        if self.run_checker:
            start = time.perf_counter()
            try:
                check = run_check(
                    program,
                    tier=self.check_tier,
                    failures=result.failures,
                    verdicts=verdicts,
                )
                result.check = check
                result.warnings = check.warnings
                detail = "%d warnings, tier=%s" % (
                    len(result.warnings),
                    check.tier,
                )
                if check.tier != "full":
                    detail += (
                        ", tier1 %d method(s)/%d site(s), tier2 %d/%d"
                        % (
                            check.tier1_methods,
                            check.tier1_sites,
                            check.tier2_methods,
                            check.tier2_sites,
                        )
                    )
                if verdicts is not None:
                    moved = self.cache.stats.delta(run_before)
                    detail += ", cache[verdict %d hit/%d miss]" % (
                        moved.verdict_hits,
                        moved.verdict_misses,
                    )
            except Exception as exc:
                result.failures.add(
                    policy.quarantine_record(
                        "plural-check", "program", exc, "stage-skipped"
                    )
                )
                detail = "skipped (%s)" % type(exc).__name__
            result.stages.append(
                StageTrace("plural-check", time.perf_counter() - start, detail)
            )
        if run_before is not None:
            result.cache_stats = self.cache.stats.delta(run_before)
        return result


def infer_and_check(sources, config=None, settings=None):
    """One-call convenience API: sources in, PipelineResult out."""
    pipeline = AnekPipeline(config=config, settings=settings)
    return pipeline.run_on_sources(sources)
