"""ANEK-INFER: the modular worklist inference algorithm (paper Figure 9).

For every method a PFG and a probabilistic model are built; the worklist
then repeatedly picks a method, applies the current callee summaries at
its call sites, SOLVEs the model with BP (the compiled flat-array kernel
by default, or the loopy reference engine via ``engine="loopy"``), and —
if the method's summary changed — re-enqueues its dependents.  Built
models are cached across visits: a revisit rewrites only the
prior/evidence slots whose inputs changed, and skips the solve outright
when the input fingerprint is identical.  The loop runs for at most
``max_worklist_iters`` model solves (the paper: "it suffices to run the
inference algorithm for a fixed number of iterations without reaching a
fixpoint"), trading accuracy against scalability.

``InferenceSettings.executor`` picks one of two schedules over the same
visit and merge steps.  ``worklist`` is the paper's sequential loop.
``serial`` condenses the call graph into SCC levels and runs rounds over
them, callee-first: every dirty method of a level is visited against the
summaries as they stood when the level began, and the visits are then
merged in sorted method-key order.  Intra-SCC (recursive) summary edges
resolve across rounds, Jacobi style.  ``serial`` usually needs fewer
solves than the worklist, but its marginals differ from it.
"""

import functools
import math
import time
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    call_graph_from_targets,
    condensation_levels,
    method_call_targets,
)
from repro.core.heuristics import HeuristicConfig
from repro.core.model import ENGINES, ModelCache
from repro.core.pfg_builder import build_pfg, method_cfg
from repro.core.summaries import (
    SummaryStore,
    clip_marginal,
    satisfaction_evidence,
)
from repro.permissions.spec import SpecEnvironment
from repro.resilience.faults import maybe_fault
from repro.resilience.limits import MemoryBudgetError, current_rss_mb
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import FailureRecord, FailureReport
from repro.resilience.shutdown import (
    RunInterrupted,
    shutdown_requested,
    stoppable_visits,
)


#: Schedules accepted by ``InferenceSettings.executor``: ``worklist`` is
#: the paper's sequential loop, ``serial`` the level-synchronous one.
EXECUTORS = ("worklist", "serial")

#: Fixed solve parameters: the BP sweep budget, damping and convergence
#: tolerance of every method solve, and the marginal change below which
#: a summary update does not re-enqueue dependents.  No surface sets
#: them; :func:`repro.cache.fingerprints.config_digest` hashes them, so
#: editing one re-keys the cache.
BP_ITERS = 30
BP_DAMPING = 0.2
BP_TOLERANCE = 1e-4
SUMMARY_CHANGE_THRESHOLD = 0.02


#: The default fault-tolerance posture: isolation and degradation on.
_DEFAULT_POLICY = ResiliencePolicy()


@dataclass
class InferenceSettings:
    """Knobs of ANEK-INFER.  The one home of the run knobs' checks: the
    CLI and the serve protocol validate threshold, max-iters and
    executor (and the CLI its RSS budget) by building one of these and
    reporting its ``ValueError``."""

    max_worklist_iters: int = 0  # 0 = 3 passes over all methods
    #: The paper's extraction threshold t in [0.5, 1).  Read only when
    #: specs are extracted from the final marginals, so cache identity
    #: leaves it out.
    threshold: float = 0.5
    #: "worklist" = the sequential Figure 9 loop; "serial" = the
    #: level-synchronous schedule over call-graph SCC levels.
    executor: str = "worklist"
    #: BP engine: "compiled" = flat-array kernel (fast path, default);
    #: "loopy" = the per-message reference engine, whose marginals are
    #: bit-identical.  An API-only switch for tests and benchmarks;
    #: identity leaves it out, like ``threshold``.
    engine: str = "compiled"
    #: The fault-tolerance policy (:class:`repro.resilience.policy.
    #: ResiliencePolicy`), or None for the default (enabled) policy.
    #: ``ResiliencePolicy.disabled()`` restores the legacy all-or-nothing
    #: behaviour.  Deliberately excluded from cache config digests: with
    #: zero faults a resilient run is bit-identical to a non-resilient
    #: one.
    policy: object = None
    #: Soft RSS budget in MiB of a cached run (0 = no budget).  Read once
    #: before the first visit, where a reading over it refuses the run
    #: (:class:`MemoryBudgetError`), then after every visit that wrote a
    #: new outcome to the cache, where it stops the run with
    #: ``RunInterrupted``; a rerun continues from the cache.  Needs a
    #: bound cache; like ``policy``, left out of cache identity.
    max_rss_mb: int = 0

    def effective_policy(self):
        return self.policy if self.policy is not None else _DEFAULT_POLICY

    def __post_init__(self):
        if (
            isinstance(self.threshold, bool)
            or not isinstance(self.threshold, (int, float))
            or not 0.5 <= self.threshold < 1.0
        ):
            raise ValueError(
                "threshold must be a number in [0.5, 1), got %r"
                % (self.threshold,)
            )
        if (
            isinstance(self.max_worklist_iters, bool)
            or not isinstance(self.max_worklist_iters, int)
            or self.max_worklist_iters < 0
        ):
            raise ValueError(
                "max_worklist_iters must be an integer >= 0 (0 = 3 passes "
                "over all methods), got %r" % (self.max_worklist_iters,)
            )
        if self.policy is not None and not isinstance(
            self.policy, ResiliencePolicy
        ):
            raise ValueError(
                "policy must be a ResiliencePolicy or None, got %r"
                % (self.policy,)
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                "unknown executor %r (expected one of %s)"
                % (self.executor, ", ".join(EXECUTORS))
            )
        if self.engine not in ENGINES:
            raise ValueError(
                "unknown engine %r (expected one of %s)"
                % (self.engine, ", ".join(ENGINES))
            )
        if (
            isinstance(self.max_rss_mb, bool)
            or not isinstance(self.max_rss_mb, int)
            or self.max_rss_mb < 0
        ):
            raise ValueError(
                "max_rss_mb must be an integer >= 0 (0 = no budget), got %r"
                % (self.max_rss_mb,)
            )

    def resolved_max_iters(self, method_count):
        if self.max_worklist_iters > 0:
            return self.max_worklist_iters
        return 3 * max(method_count, 1)


@dataclass
class InferenceStats:
    """Bookkeeping for the evaluation tables.

    Two kinds of field matter to tests.  **Work counters**
    (:data:`WORK_COUNTERS`) are a pure function of the program, config,
    cache contents and schedule: they repeat exactly across reruns.
    **Timings** — ``elapsed_seconds``, ``build_seconds``,
    ``solve_seconds`` and the per-level ``schedule`` seconds — are
    reported, never asserted.  The checker's split lives in the
    pipeline's :class:`repro.plural.checker.CheckRun`.
    """

    WORK_COUNTERS = (
        "solves",
        "builds",
        "reuses",
        "skips",
        "replays",
        "factors",
        "constraint_counts",
        "levels",
        "rounds",
    )

    methods: int = 0
    solves: int = 0
    elapsed_seconds: float = 0.0
    pfg_nodes: int = 0
    #: Distinct factors *constructed* — counted once per model build, not
    #: once per visit, so revisits of a reused model add nothing.
    factors: int = 0
    constraint_counts: dict = field(default_factory=dict)
    #: Which BP engine ran ("compiled" or "loopy").
    engine: str = "compiled"
    #: Visit breakdown: models built from scratch / reused with slot
    #: rewrites / skipped outright on an unchanged input fingerprint.
    builds: int = 0
    reuses: int = 0
    skips: int = 0
    #: Visits replayed from the persistent cache (no build, no BP sweep).
    replays: int = 0
    #: Time split: model construction + slot refresh vs BP kernel time.
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Which schedule ran ("worklist" or "serial").
    executor: str = "worklist"
    #: ``serial`` schedule shape: SCC-condensation levels and rounds run.
    levels: int = 0
    sccs: int = 0
    rounds: int = 0
    #: Per-level trace entries of ``serial``: {round, level, methods,
    #: seconds}.
    schedule: list = field(default_factory=list)
    #: Methods quarantined by the resilience layer (frontend or
    #: constraint-generation failures): excluded from inference, given a
    #: conservative spec at extraction.
    quarantined: int = 0
    #: Solves that fell to the prior-only floor of the retry ladder.
    degraded: int = 0

    def work_counters(self):
        """``{name: value}`` of the :data:`WORK_COUNTERS`."""
        return {name: getattr(self, name) for name in self.WORK_COUNTERS}

    def to_payload(self):
        """The stats as plain JSON-serializable data (the serving layer
        ships these in every response).  The per-level ``schedule`` trace
        is summarized to its length — per-level wall-clock timings are
        nondeterministic and have no business in a response payload."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["schedule"] = len(self.schedule)
        return payload


def build_frontend(program, method_ref, policy, site_key):
    """A method's (pfg, callees), built cold: one lowering feeds both
    the PFG and the resolved call targets."""
    if policy.enabled:
        maybe_fault("pfg", site_key)
    cfg = method_cfg(program, method_ref)
    pfg = build_pfg(program, method_ref, cfg=cfg, limits=policy.limits)
    return pfg, method_call_targets(program, cfg.lowered)


class AnekInference:
    """The ANEK-INFER procedure over a resolved program."""

    def __init__(self, program, config=None, settings=None, cache=None,
                 failures=None):
        self.program = program
        self.config = config or HeuristicConfig()
        self.settings = settings or InferenceSettings()
        #: The run's failure ledger (shared with the pipeline when it
        #: owns the run, so parse-stage and solve-stage failures land in
        #: one report).
        self.failures = failures if failures is not None else FailureReport()
        #: {method_ref: FailureRecord} of methods dropped from inference.
        self.quarantined = {}
        self.spec_env = SpecEnvironment(program)
        self.summaries = SummaryStore(
            change_threshold=SUMMARY_CHANGE_THRESHOLD
        )
        self.stats = InferenceStats(engine=self.settings.engine)
        #: The persistent cache, bound to this program/config — None when
        #: caching is off or the config is not fingerprintable.
        self.cache = (
            cache.bind(program, self.config, self.settings)
            if cache is not None
            else None
        )
        if self.settings.max_rss_mb and self.cache is None:
            raise ValueError(
                "max_rss_mb needs a bound analysis cache: a stopped run "
                "continues only by rerunning against that cache"
            )
        #: {method_ref: PFG or PFGInterface} of the methods inference
        #: still covers: a stored PFG stays undecoded until a visit
        #: builds the method's model.
        self.pfgs = {}
        self.models = ModelCache(
            program,
            self.config,
            self.spec_env,
            engine=self.settings.engine,
            cache=self.cache,
        )
        self.call_graph = None
        self.method_set = set()
        self._callers_of = {}
        #: {method_ref: distinct resolved callees, sorted by method key}
        #: of every method whose call targets are known, kept for the
        #: check-verdict layer of a bound cache (empty without one).
        self.callees = {}

    # -- error isolation ----------------------------------------------------------

    def quarantine_method(self, method_ref, record):
        """Drop one method from inference; downstream stages see it only
        through its conservative (empty-boundary) spec."""
        self.failures.add(record)
        self.quarantined[method_ref] = record
        self.pfgs.pop(method_ref, None)
        self.method_set.discard(method_ref)
        self.stats.quarantined += 1

    def _build_pfg_guarded(self, method_ref, policy):
        """:func:`build_frontend` under isolation: a crash quarantines
        only this method.  Returns (pfg, callees) or (None, None)."""
        site_key = self.models.site_key(method_ref)
        try:
            return build_frontend(self.program, method_ref, policy, site_key)
        except Exception as exc:
            self.quarantine_method(
                method_ref,
                policy.quarantine_record(
                    "pfg", site_key, exc, "method-quarantined"
                ),
            )
            return None, None

    # -- initialization (Figure 9 lines 1-7) -------------------------------------

    def _initialize(self):
        policy = self.settings.effective_policy()
        methods = list(self.program.methods_with_bodies())
        self.stats.methods = len(methods)
        self.method_set = set(methods)
        callees_of = {}
        for method_ref in methods:
            pfg = None
            if self.cache is not None:
                # The rebuild holds the program, not this inference: a
                # cycle through it would outlive the run.
                pfg, callees = self.cache.load_frontend(
                    method_ref,
                    functools.partial(
                        build_frontend,
                        self.program,
                        method_ref,
                        policy,
                        self.models.site_key(method_ref),
                    ),
                )
            if pfg is None:
                pfg, callees = self._build_pfg_guarded(method_ref, policy)
                if pfg is None:
                    continue
                if self.cache is not None:
                    self.cache.store_frontend(method_ref, pfg, callees)
            callees_of[method_ref] = callees
            self.pfgs[method_ref] = pfg
            self.stats.pfg_nodes += pfg.node_count()
            if self.cache is not None:
                self.callees[method_ref] = tuple(
                    sorted(
                        {callee for callee, _line in callees},
                        key=self.cache.key_of.__getitem__,
                    )
                )
        if self.quarantined:
            methods = [m for m in methods if m in self.pfgs]
        # Cached or freshly built, every surviving method's targets are
        # in source order, so the graph never needs a lowering of its own.
        self.call_graph = call_graph_from_targets(callees_of)
        for method_ref in methods:
            self._callers_of[method_ref] = [
                caller
                for caller in self.call_graph.caller_methods_of(method_ref)
                if caller in self.method_set
            ]
        return methods

    # -- the schedules (Figure 9 lines 8-21) --------------------------------------

    def run(self):
        """Run inference; returns {method_ref: boundary marginals dict}.

        A cached run may stop between two visits, or right after the
        last, with :class:`RunInterrupted` (see :meth:`_stop_check`);
        rerunning it against the same cache replays every visit it
        finished."""
        start = time.perf_counter()
        methods = self._initialize()
        budget = self.settings.max_rss_mb
        if budget:
            rss = current_rss_mb()
            if rss > budget:
                raise MemoryBudgetError(
                    "max-rss-mb",
                    "%.0f MiB" % rss,
                    "%d MiB" % budget,
                    "RSS after setup, before the first visit",
                )
        results = {}
        self.stats.executor = self.settings.executor
        with stoppable_visits():
            if self.settings.executor == "worklist":
                self._run_worklist(methods, results)
            else:
                self._run_levels(methods, results)
        # A stop requested after the loop's last check.
        self._stop_check(None, None)
        self.stats.elapsed_seconds = time.perf_counter() - start
        return results

    def _visit_ceiling(self):
        """The worklist-visit budget: a backstop against a degenerate call
        graph (or a hostile --max-iters) driving either schedule far past
        any plausible fixpoint (0 = none)."""
        return self.settings.effective_policy().limits.cap(
            "max_worklist_visits"
        )

    def _record_visit_ceiling(self, pending, visits):
        """Ledger the visit budget cutting a run short with work left.
        Only an actual breach is recorded, so a run that drains
        naturally is bit-identical with governance off."""
        self.failures.add(
            FailureRecord(
                stage="resource",
                key="worklist",
                error="ResourceLimitError",
                message="worklist-visits limit exceeded: %d methods "
                "still queued after %d visits" % (pending, visits),
                disposition="resource-limit",
            )
        )

    def _stop_check(self, method_ref, visit):
        """Between two visits of a cached run, and once after the last
        (``method_ref`` None): stop on a stop request, or on an RSS
        reading over ``max_rss_mb`` taken right after a visit that wrote
        a new outcome to the cache.  Replays and skips never read RSS,
        so every rerun of a stopped run solves at least one more visit
        than the last."""
        if self.cache is None:
            return
        if shutdown_requested():
            self._interrupt(method_ref, "solve", "Interrupted",
                            "stop requested")
        budget = self.settings.max_rss_mb
        if budget and visit is not None and visit.stored:
            rss = current_rss_mb()
            if rss > budget:
                self._interrupt(
                    method_ref,
                    "resource",
                    "SoftMemoryBudget",
                    "RSS %.0f MiB over the %d MiB budget" % (rss, budget),
                )

    def _interrupt(self, method_ref, stage, error, why):
        """Ledger one ``run-interrupted`` record (keyed ``worklist``
        after the loop) and raise :class:`RunInterrupted`."""
        self.failures.interrupted = True
        self.failures.add(
            FailureRecord(
                stage=stage,
                key=(
                    "worklist"
                    if method_ref is None
                    else self.models.site_key(method_ref)
                ),
                error=error,
                message="%s after this visit; rerun the same command "
                "to continue" % why,
                disposition="run-interrupted",
            )
        )
        raise RunInterrupted(why, self.failures)

    def _run_worklist(self, methods, results):
        """The paper's loop: visit methods first-in first-out, re-enqueueing
        the dependents of every changed summary."""
        stats = self.stats
        worklist = deque(methods)
        queued = set(worklist)
        # Quarantines shrink ``pfgs``, so its size is the surviving
        # method count.
        max_iters = self.settings.resolved_max_iters(len(self.pfgs))
        visit_ceiling = self._visit_ceiling()
        if visit_ceiling and max_iters > visit_ceiling:
            max_iters = visit_ceiling
        while worklist and stats.solves < max_iters:
            stats.solves += 1
            method_ref = worklist.popleft()  # CHOOSE(W)
            queued.discard(method_ref)
            visit = self._visit(method_ref)
            changed = self._merge(method_ref, visit, results)
            for dependent in changed:
                if dependent not in queued and dependent in self.pfgs:
                    queued.add(dependent)
                    worklist.append(dependent)
            self._stop_check(method_ref, visit)
        if worklist and visit_ceiling and stats.solves >= visit_ceiling:
            self._record_visit_ceiling(len(worklist), stats.solves)

    def _run_levels(self, methods, results):
        """The ``serial`` schedule: rounds over the SCC levels, callee-first.

        Each level visits its dirty methods, then merges them in sorted
        method-key order.  Later rounds visit only methods whose own
        summary, callee summaries or incoming evidence changed.  Rounds
        stop when the round budget derived from ``max_worklist_iters``
        runs out, or when a round leaves every summary and every piece
        of evidence unchanged.
        """
        stats = self.stats
        if not methods:
            return
        levels, stats.sccs = condensation_levels(
            self.call_graph, methods, sort_key=self.models.site_key
        )
        stats.levels = len(levels)
        method_count = sum(len(level) for level in levels)
        max_iters = self.settings.resolved_max_iters(method_count)
        rounds = max(1, math.ceil(max_iters / max(method_count, 1)))
        visit_ceiling = self._visit_ceiling()
        dirty = set(methods)
        round_changed = set()
        for round_index in range(1, rounds + 1):
            for level_index, level in enumerate(levels):
                targets = [
                    ref for ref in level if ref in dirty and ref in self.pfgs
                ]
                pending = 0
                if visit_ceiling:
                    budget = max(0, visit_ceiling - stats.solves)
                    pending = max(0, len(targets) - budget)
                    targets = targets[:budget]
                if targets:
                    level_start = time.perf_counter()
                    round_changed |= self._solve_level(targets, results)
                    stats.solves += len(targets)
                    stats.schedule.append(
                        {
                            "round": round_index,
                            "level": level_index,
                            "methods": len(targets),
                            "seconds": time.perf_counter() - level_start,
                        }
                    )
                if pending:
                    stats.rounds = round_index
                    self._record_visit_ceiling(pending, stats.solves)
                    return
            stats.rounds = round_index
            dirty, round_changed = round_changed, set()
            if not dirty:
                break

    def _solve_level(self, targets, results):
        """Visit every target against the summaries as they stood when the
        level began, then merge the visits in order; returns the methods
        to revisit.  The stop check follows every visit: the level's
        finished visits are already cached, so a rerun replays them."""
        visits = []
        for ref in targets:
            visit = self._visit(ref)
            visits.append((ref, visit))
            self._stop_check(ref, visit)
        revisit = set()
        for ref, visit in visits:
            revisit.update(self._merge(ref, visit, results))
        return revisit

    def _visit(self, method_ref):
        """SOLVE one method, building or reusing its cached model, and
        count the visit; returns the :class:`ModelVisit`, or None when
        the method was quarantined."""
        pfg = self.pfgs[method_ref]
        policy = self.settings.effective_policy()
        try:
            visit = self.models.solve(
                method_ref, pfg, self.summaries, self.settings
            )
        except Exception as exc:
            # Constraint generation (or the model machinery around it)
            # crashed — or the built factor graph breached its size
            # budget: quarantine just this method.  The solve stage
            # itself never raises here — guarded_solve degrades instead.
            self.quarantine_method(
                method_ref,
                policy.quarantine_record(
                    "constraints",
                    self.models.site_key(method_ref),
                    exc,
                    "method-quarantined",
                ),
            )
            return None
        if visit.failures:
            self.failures.extend(visit.failures)
        if visit.degraded:
            self.stats.degraded += 1
        if visit.built:
            # Constraint generation ran: count its factors exactly once.
            self.stats.builds += 1
            self.stats.factors += visit.factor_count
            for rule, count in visit.constraint_counts.items():
                self.stats.constraint_counts[rule] = (
                    self.stats.constraint_counts.get(rule, 0) + count
                )
        elif visit.skipped:
            self.stats.skips += 1
        elif visit.replayed:
            self.stats.replays += 1
        else:
            self.stats.reuses += 1
        self.stats.build_seconds += visit.build_seconds
        self.stats.solve_seconds += visit.solve_seconds
        return visit

    def _merge(self, method_ref, visit, results):
        """Fold one visit into the results and the summary store; returns
        the methods to revisit.  A quarantined method (``visit`` None)
        gets a conservative empty boundary and touches nothing else, so
        its neighbours solve as if it had no body."""
        if visit is None:
            results[method_ref] = {}
            return []
        boundary = visit.boundary
        results[method_ref] = boundary
        to_enqueue = []
        # UPDATESUMMARY: store our own boundary marginals.
        own_changed = False
        for (slot, target), marginal in boundary.items():
            capped = clip_marginal(marginal, self.config.summary_confidence)
            if self.summaries.update(method_ref, slot, target, capped):
                own_changed = True
        if own_changed:
            to_enqueue.extend(self._callers_of.get(method_ref, []))
            to_enqueue.append(method_ref)
        # Deposit demand evidence into unannotated callees.  Precondition
        # kind evidence is satisfaction-transformed: callers veto only
        # requirements they could not meet.
        for callee, slot, target, site_key, marginal in visit.deposits:
            if slot == "pre":
                marginal = satisfaction_evidence(marginal)
            capped = clip_marginal(marginal, self.config.summary_confidence)
            if self.summaries.deposit_evidence(
                callee, slot, target, site_key, capped
            ):
                if callee in self.pfgs:
                    to_enqueue.append(callee)
        return to_enqueue

    # -- spec extraction (Figure 9 lines 22-29) ---------------------------------------

    def extract_specs(self, results=None):
        from repro.core.extract import extract_program_specs

        if results is None:
            results = self.run()
        # Quarantined methods still get a (conservative, empty-boundary)
        # entry so downstream consumers — the applier, PLURAL checking —
        # see every method they expect.
        for method_ref in self.quarantined:
            results.setdefault(method_ref, {})
        return extract_program_specs(
            self.program,
            results,
            self.spec_env,
            threshold=self.settings.threshold,
        )
