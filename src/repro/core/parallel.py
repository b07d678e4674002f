"""Parallel ANEK-INFER: level-synchronous scheduling over the call graph.

The paper's modularity claim is that probabilistic method summaries are
the *only* channel between per-method models, so independent methods can
be solved concurrently.  This module makes that operational:

* the call graph is condensed into SCC levels
  (:func:`repro.analysis.callgraph.condensation_levels`) — methods in
  the same level share no cross-SCC summary dependency;
* each round walks the levels callee-first; every level's models are
  solved concurrently against a *snapshot* of the summary store taken at
  the start of the level;
* the solved marginals are merged back in sorted method-key order, so
  the final summaries (and therefore every downstream marginal) are
  independent of task completion order.

Two interchangeable executors drive the level solves — ``serial``
(inline, the reference) and ``process`` (one *lane* per job: a
one-worker process pool that always solves the same methods, chosen by
the deterministic :func:`repro.core.shardplan.plan_shards` partition).
Both run the *same* schedule, exchange the *same* picklable payloads,
and merge in the *same* order, which is the determinism guarantee the
differential test suites (``tests/test_parallel_differential.py``,
``tests/test_shard_differential.py``) lock in: marginals agree
bit-for-bit across executors, and because a lane reuses its methods'
models exactly as ``serial`` does, so do the work counters.

Rounds repeat until either the round budget derived from
``InferenceSettings.max_worklist_iters`` is exhausted or a round leaves
every summary and every piece of caller evidence unchanged.  Later
rounds only re-solve *dirty* methods — those whose own summary, callee
summaries, or incoming evidence changed — mirroring the sequential
worklist's re-enqueue rule.  Intra-SCC (recursive) summary edges resolve
across rounds, Jacobi style.
"""

import math
import multiprocessing
import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.analysis.callgraph import condensation_levels
from repro.core.model import ModelCache
from repro.core.pfg_builder import build_pfg
from repro.core.priors import SpecEnvironment
from repro.core.shardplan import plan_shards
from repro.core.summaries import (
    SummaryStore,
    TargetMarginal,
    clip_marginal,
    satisfaction_evidence,
)
from repro.resilience.faults import maybe_fault
from repro.resilience.report import FailureRecord

#: Executors accepted by ``InferenceSettings.executor``.  ``worklist`` is
#: the sequential reference engine (paper Figure 9); the other two run
#: the level-synchronous schedule above.
EXECUTORS = ("worklist", "serial", "process")


def resolve_jobs(jobs):
    """Worker count: ``jobs`` if positive, else the machine's CPU count."""
    if jobs and jobs > 0:
        return int(jobs)
    return os.cpu_count() or 1


@dataclass
class MethodSolveOutcome:
    """Picklable result of solving one method's model.

    Marginals travel as plain ``(kind, state)`` dict payloads
    (:meth:`TargetMarginal.to_payload`) and methods as stable string keys
    (:func:`repro.java.symbols.method_key`), so an outcome can cross a
    process boundary and re-attach to the parent's ASTs.
    """

    key: str
    boundary: list  # [((slot, target), marginal payload), ...]
    deposits: list  # [(callee key, slot, target, site key, payload), ...]
    #: Factors constructed by this visit: the model's factor count when a
    #: build ran, else 0 — a reused model regenerates no constraints.
    factor_count: int
    constraint_counts: dict
    built: bool = True
    skipped: bool = False
    #: True when the outcome was replayed from the persistent cache.
    replayed: bool = False
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Resilience outcomes: the method was dropped (constraint-generation
    #: crash) / fell to prior-only marginals / the FailureRecords either
    #: way.  Records are plain dataclasses, so they pickle across the
    #: process boundary inside the outcome.
    quarantined: bool = False
    degraded: bool = False
    failures: list = field(default_factory=list)


def solve_method_to_outcome(
    program, method_ref, key, pfg, config, settings, spec_env, store, key_of,
    models=None,
):
    """SOLVE one method (via its cached model when ``models`` is given);
    every executor funnels through this single code path so
    floating-point behaviour cannot diverge."""
    if models is None:
        models = ModelCache(
            program, config, spec_env, engine=settings.engine, reuse=False
        )
    policy = settings.effective_policy()
    try:
        visit = models.solve(method_ref, pfg, store, settings)
    except Exception as exc:
        # Constraint generation (or the model machinery around it)
        # crashed, or the factor graph breached its budget.  Report a
        # quarantined outcome instead of letting the exception take down
        # the level or the whole lane.
        return MethodSolveOutcome(
            key=key,
            boundary=[],
            deposits=[],
            factor_count=0,
            constraint_counts={},
            built=False,
            quarantined=True,
            failures=[
                policy.quarantine_record(
                    "constraints", key, exc, "method-quarantined"
                )
            ],
        )
    boundary = [
        (slot_target, marginal.to_payload())
        for slot_target, marginal in visit.boundary.items()
    ]
    deposits = []
    for callee, slot, target, site_key, marginal in visit.deposits:
        caller_ref, site_index = site_key
        deposits.append(
            (
                key_of[callee],
                slot,
                target,
                (key_of[caller_ref], site_index),
                marginal.to_payload(),
            )
        )
    return MethodSolveOutcome(
        key=key,
        boundary=boundary,
        deposits=deposits,
        factor_count=visit.factor_count,
        constraint_counts=visit.constraint_counts,
        built=visit.built,
        skipped=visit.skipped,
        replayed=visit.replayed,
        build_seconds=visit.build_seconds,
        solve_seconds=visit.solve_seconds,
        degraded=visit.degraded,
        failures=list(visit.failures),
    )


# ---------------------------------------------------------------------------
# Process-pool worker side
# ---------------------------------------------------------------------------

#: Per-worker state, installed once by the pool initializer.
_WORKER = None


def _process_worker_init(blob):
    """Unpickle the program once per worker and index it by method key.

    The blob carries the parent's already-built PFGs: pickling them is an
    order of magnitude cheaper than re-lowering every method in every
    worker, and ``pickle`` memoization keeps them attached to the same
    unpickled AST objects as the worker's program copy.
    """
    global _WORKER
    program, config, settings, pfgs_by_key, cache_spec = pickle.loads(blob)
    table = program.method_key_table()
    spec_env = SpecEnvironment(program)
    bound_cache = None
    if cache_spec is not None:
        # Each worker re-opens the store from its picklable spec; writes
        # are atomic renames, so concurrent workers never tear entries.
        from repro.cache.manager import AnalysisCache

        bound_cache = AnalysisCache.from_spec(cache_spec).bind(
            program, config, settings
        )
    _WORKER = {
        "program": program,
        "config": config,
        "settings": settings,
        "spec_env": spec_env,
        "table": table,
        "key_of": {ref: key for key, ref in table.items()},
        "pfgs": pfgs_by_key,
        # Worker-local model cache: the lane re-solves the same methods
        # every round, so each reuses its built model exactly as under
        # the serial executor.  Refreshes depend only on store *content*,
        # so worker-local caches cannot change results.
        "models": ModelCache(
            program,
            config,
            spec_env,
            engine=settings.engine,
            reuse=settings.reuse_models,
            cache=bound_cache,
        ),
    }


def _process_solve_chunk(keys, store_payload):
    """Solve one lane's share of a level inside its worker process;
    returns the outcomes and the worker's busy seconds."""
    start = time.perf_counter()
    state = _WORKER
    store = SummaryStore.from_payload(store_payload, state["table"])
    policy = state["settings"].effective_policy()
    outcomes = []
    for key in keys:
        if policy.enabled:
            # The worker-crash site: ``kill`` faults simulate a
            # segfaulting worker, ``delay`` a hung one, ``raise`` an
            # in-worker crash — each surfaces in the parent as a failed
            # lane and exercises the lane-recovery path.
            maybe_fault("worker", key)
        ref = state["table"][key]
        pfg = state["pfgs"].get(key)
        if pfg is None:  # pragma: no cover - defensive; blob ships all PFGs
            pfg = state["pfgs"][key] = build_pfg(state["program"], ref)
        outcomes.append(
            solve_method_to_outcome(
                state["program"],
                ref,
                key,
                pfg,
                state["config"],
                state["settings"],
                state["spec_env"],
                store,
                state["key_of"],
                models=state["models"],
            )
        )
    return outcomes, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Executor backends
# ---------------------------------------------------------------------------


class _SerialBackend:
    """Inline execution: the deterministic reference for the schedule.

    Solving only *reads* the summary store and merging happens strictly
    after the level completes, so the live store is passed straight
    through — the payload round-trip is pure copying and the process
    backend's reconstruction yields value-identical dicts, keeping both
    executors' floats equal.
    """

    name = "serial"

    def __init__(self, scheduler):
        self.scheduler = scheduler

    def solve_level(self, keys, store):
        """The level's outcomes in ``keys`` order, and no lane trace."""
        return [self.scheduler.solve_local(key, store) for key in keys], None

    def close(self):
        pass


class _ProcessBackend:
    """Process execution: one *lane* per job.

    A lane is a one-worker process pool, and every level hands it
    exactly the methods the lane plan assigns it.  A method is therefore
    built once and reused by the same worker in later rounds, as under
    ``serial``, so the work counters (builds, reuses, skips, constraint
    counts) repeat too.

    The backend survives worker death: a lane whose future raises
    (``BrokenProcessPool`` after a killed worker, ``TimeoutError`` after
    a hang past ``policy.worker_timeout``, or an in-worker crash) is
    rebuilt and its methods requeued, up to ``policy.worker_retries``
    rebuilds per level.  If lanes keep collapsing, the backend degrades
    *permanently* to solving in-parent on the serial path — same single
    solve code path, so the recovered marginals are bit-identical to
    what healthy lanes would have produced.  (A rebuilt lane starts with
    an empty model cache, so a recovered run repeats some builds.)
    """

    name = "process"

    def __init__(self, scheduler, blob, lane_of, lanes):
        self.scheduler = scheduler
        self.blob = blob
        #: ``{method key: lane}``, fixed for the whole run.
        self.lane_of = lane_of
        self.policy = scheduler.settings.effective_policy()
        self.failures = scheduler.inference.failures
        #: Permanent in-parent fallback after repeated lane collapse.
        self.serial_fallback = False
        if "fork" in multiprocessing.get_all_start_methods():
            self.context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self.context = multiprocessing.get_context()
        self.pools = [self._make_pool() for _ in range(lanes)]

    def _make_pool(self):
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self.context,
            initializer=_process_worker_init,
            initargs=(self.blob,),
        )

    def _kill_pool(self, lane):
        """Tear one lane down hard — a hung worker never finishes, so a
        graceful shutdown would block forever."""
        pool, self.pools[lane] = self.pools[lane], None
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead races
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken-pool races
            pass

    def _solve_in_parent(self, lanes, chunks, store, by_key, busy):
        """The last-resort path: solve the lanes' methods inline via the
        scheduler's local entry — identical maths, zero processes."""
        for lane in lanes:
            start = time.perf_counter()
            for key in chunks[lane]:
                outcome = self.scheduler.solve_local(key, store)
                by_key[outcome.key] = outcome
            busy[lane] = time.perf_counter() - start

    def solve_level(self, keys, store):
        """The level's outcomes in ``keys`` order, and the per-lane trace
        ``[{lane, methods, seconds}]`` of worker busy time."""
        chunks = [[] for _ in self.pools]
        for key in keys:
            chunks[self.lane_of[key]].append(key)
        # Serialized once per level; every lane gets the same payload.
        store_payload = store.to_payload(self.scheduler.key_of)
        timeout = self.policy.worker_timeout or None
        by_key = {}
        busy = {}
        pending = [lane for lane, chunk in enumerate(chunks) if chunk]
        rebuilds = 0
        while pending:
            if self.serial_fallback:
                self._solve_in_parent(pending, chunks, store, by_key, busy)
                break
            submitted = [
                (lane, self.pools[lane].submit(
                    _process_solve_chunk, chunks[lane], store_payload
                ))
                for lane in pending
            ]
            failed = []
            first_error = None
            for lane, future in submitted:
                try:
                    outcomes, busy[lane] = future.result(timeout=timeout)
                except Exception as exc:
                    if not self.policy.enabled:
                        raise
                    failed.append(lane)
                    if first_error is None:
                        first_error = exc
                    continue
                for outcome in outcomes:
                    by_key[outcome.key] = outcome
            if not failed:
                break
            # A dead or hung worker: its lane is suspect either way (a
            # BrokenProcessPool poisons every future; a hung worker never
            # frees its slot), so rebuild the lane from scratch.
            for lane in failed:
                self._kill_pool(lane)
            rebuilds += 1
            requeued = [key for lane in failed for key in chunks[lane]]
            requeued_keys = ",".join(requeued)
            if rebuilds > self.policy.worker_retries:
                self.serial_fallback = True
                self.failures.add(
                    FailureRecord(
                        stage="worker",
                        key=requeued_keys,
                        error=type(first_error).__name__,
                        message="process pool collapsed %d times; running "
                        "remaining methods in-parent (%s)"
                        % (rebuilds, first_error),
                        disposition="executor-degraded",
                        retries=self.policy.worker_retries,
                    )
                )
                self._solve_in_parent(failed, chunks, store, by_key, busy)
                break
            self.failures.add(
                FailureRecord(
                    stage="worker",
                    key=requeued_keys,
                    error=type(first_error).__name__,
                    message="worker failure (%s); %d lane(s) rebuilt, %d "
                    "method(s) requeued"
                    % (first_error, len(failed), len(requeued)),
                    disposition="worker-restarted",
                    retries=rebuilds,
                )
            )
            # The orchestrator-kill site of the chaos harness: a
            # ``killproc`` here SIGKILLs the parent mid-recovery, after
            # the old lanes are torn down but before their replacements
            # exist — the worst moment for a preemption to land.
            maybe_fault("worker-recover", requeued_keys)
            for lane in failed:
                self.pools[lane] = self._make_pool()
            pending = failed
        trace = [
            {"lane": lane, "methods": len(chunks[lane]), "seconds": busy[lane]}
            for lane in sorted(busy)
        ]
        return [by_key[key] for key in keys], trace

    def close(self):
        for pool in self.pools:
            if pool is not None:
                pool.shutdown()


# ---------------------------------------------------------------------------
# The level-synchronous scheduler
# ---------------------------------------------------------------------------


class LevelScheduler:
    """Runs ANEK-INFER as a level-synchronous schedule over one program."""

    def __init__(self, inference):
        self.inference = inference
        self.program = inference.program
        self.config = inference.config
        self.settings = inference.settings
        self.table = self.program.method_key_table()
        self.key_of = {ref: key for key, ref in self.table.items()}

    # -- worker entry for the serial backend ----------------------------------

    def solve_local(self, key, store):
        ref = self.table[key]
        return solve_method_to_outcome(
            self.program,
            ref,
            key,
            self.inference.pfgs[ref],
            self.config,
            self.settings,
            self.inference.spec_env,
            store,
            self.key_of,
            models=self.inference.models,
        )

    # -- backend construction --------------------------------------------------

    def make_backend(self, jobs, levels):
        """The backend of the configured executor.

        ``process`` gets one lane per job, each pinned to the methods
        :func:`plan_shards` assigns it.  Every lane is initialized from
        one blob: the program is pickled once, not once per lane.  A
        program or config that cannot be pickled falls back to
        ``serial``, which computes the same results.
        """
        if self.settings.executor == "serial":
            return _SerialBackend(self)
        plan = plan_shards(levels, jobs, self.key_of)
        bound_cache = self.inference.cache
        cache_spec = (
            bound_cache.cache.spec() if bound_cache is not None else None
        )
        pfgs_by_key = {
            self.key_of[ref]: self.inference.pfgs[ref]
            for ref in sorted(plan, key=lambda r: self.key_of[r])
        }
        try:
            blob = pickle.dumps(
                (self.program, self.config, self.settings, pfgs_by_key,
                 cache_spec),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception as exc:
            warnings.warn(
                "process executor unavailable (%s: %s); falling back to "
                "serial" % (type(exc).__name__, exc),
                RuntimeWarning,
                stacklevel=2,
            )
            return _SerialBackend(self)
        lane_of = {self.key_of[ref]: lane for ref, lane in plan.items()}
        return _ProcessBackend(self, blob, lane_of, jobs)

    # -- the schedule ----------------------------------------------------------

    def run(self, manager=None, resume_state=None):
        inference = self.inference
        settings = self.settings
        stats = inference.stats
        start = time.perf_counter()
        methods = inference._initialize()
        self._results = {}
        resume_extra = None
        if resume_state is not None:
            # Restore *before* building the levels: a method the earlier
            # run quarantined at the PFG stage must be absent from the
            # condensation (as it was then), keeping the round budget and
            # the schedule identical across the resume boundary.
            self._results, resume_extra = inference._apply_resume_state(
                resume_state
            )
            methods = [ref for ref in methods if ref in inference.pfgs]
        stats.executor = settings.executor
        stats.jobs = resolve_jobs(settings.jobs)
        results = {}
        if methods:
            levels, scc_count = condensation_levels(
                inference.call_graph,
                methods,
                sort_key=lambda ref: self.key_of[ref],
            )
            stats.levels = len(levels)
            stats.sccs = scc_count
            backend = self.make_backend(stats.jobs, levels)
            stats.executor = backend.name
            try:
                self._run_rounds(levels, backend, manager, resume_extra)
            finally:
                backend.close()
            results = self._results
        stats.elapsed_seconds = time.perf_counter() - start
        return results

    def _run_rounds(self, levels, backend, manager=None, resume=None):
        inference = self.inference
        stats = inference.stats
        store = inference.summaries
        method_count = sum(len(level) for level in levels)
        max_iters = self.settings.resolved_max_iters(method_count)
        rounds = max(1, math.ceil(max_iters / max(method_count, 1)))
        dirty = set(ref for level in levels for ref in level)
        start_round, resume_level = 1, None
        round_changed_seed = None
        if resume:
            # Snapshots record the position *after* level (round, level)
            # merged, plus both dirty sets; re-entering there re-executes
            # the remaining levels exactly as the uninterrupted run
            # would have (merges happen in sorted method-key order, so
            # the schedule is the only state that matters).
            start_round = resume["round"]
            resume_level = resume["level"]
            dirty = {
                self.table[key] for key in resume["dirty"] if key in self.table
            }
            round_changed_seed = {
                self.table[key]
                for key in resume["round_changed"]
                if key in self.table
            }
        for round_index in range(start_round, rounds + 1):
            if round_changed_seed is not None:
                round_changed = round_changed_seed
                round_changed_seed = None
            else:
                round_changed = set()
            for level_index, level in enumerate(levels):
                if (
                    resume_level is not None
                    and round_index == start_round
                    and level_index <= resume_level
                ):
                    continue
                targets = [
                    ref
                    for ref in level
                    if ref in dirty and ref in inference.pfgs
                ]
                if not targets:
                    continue
                keys = [self.key_of[ref] for ref in targets]
                level_start = time.perf_counter()
                outcomes, lanes = backend.solve_level(keys, store)
                for outcome in outcomes:
                    self._merge_outcome(outcome, round_changed)
                stats.solves += len(targets)
                entry = {
                    "round": round_index,
                    "level": level_index,
                    "methods": len(targets),
                    "seconds": time.perf_counter() - level_start,
                }
                if lanes is not None:
                    entry["lanes"] = lanes
                stats.schedule.append(entry)
                if manager is not None:
                    extra = {
                        "round": round_index,
                        "level": level_index,
                        "dirty": sorted(
                            self.key_of[ref]
                            for ref in dirty
                            if ref in self.key_of
                        ),
                        "round_changed": sorted(
                            self.key_of[ref]
                            for ref in round_changed
                            if ref in self.key_of
                        ),
                    }
                    manager.barrier(
                        "round:%d:level:%d" % (round_index, level_index),
                        lambda extra=extra: manager.encode(
                            self._results, extra=extra
                        ),
                    )
            stats.rounds = round_index
            dirty = round_changed
            if not dirty:
                break

    def _merge_outcome(self, outcome, round_changed):
        """Fold one solved model back into the shared state.

        Outcomes arrive in sorted method-key order (the backends preserve
        submission order), so every store mutation below happens in the
        same sequence on every executor.
        """
        inference = self.inference
        stats = inference.stats
        store = inference.summaries
        confidence = self.config.summary_confidence
        ref = self.table[outcome.key]
        if outcome.quarantined:
            # The method died during constraint generation: drop it from
            # inference and give it a conservative empty boundary.  Its
            # summaries/deposits are never touched, so neighbours solve
            # exactly as if the method had no body.
            inference.quarantine_method(ref, outcome.failures[0])
            self._results[ref] = {}
            return
        if outcome.failures:
            inference.failures.extend(outcome.failures)
        if outcome.degraded:
            stats.degraded += 1
        boundary = {
            slot_target: TargetMarginal.from_payload(payload)
            for slot_target, payload in outcome.boundary
        }
        self._results[ref] = boundary
        if outcome.built:
            # Constraint generation ran: count its factors exactly once.
            stats.builds += 1
            stats.factors += outcome.factor_count
            for rule, count in outcome.constraint_counts.items():
                stats.constraint_counts[rule] = (
                    stats.constraint_counts.get(rule, 0) + count
                )
        elif outcome.skipped:
            stats.skips += 1
        elif outcome.replayed:
            stats.replays += 1
        else:
            stats.reuses += 1
        stats.build_seconds += outcome.build_seconds
        stats.solve_seconds += outcome.solve_seconds
        own_changed = False
        for (slot, target), marginal in boundary.items():
            capped = clip_marginal(marginal, confidence)
            if store.update(ref, slot, target, capped):
                own_changed = True
        if own_changed:
            round_changed.add(ref)
            round_changed.update(inference._callers_of.get(ref, []))
        for callee_key, slot, target, site_key, payload in outcome.deposits:
            marginal = TargetMarginal.from_payload(payload)
            if slot == "pre":
                marginal = satisfaction_evidence(marginal)
            capped = clip_marginal(marginal, confidence)
            callee = self.table[callee_key]
            if store.deposit_evidence(callee, slot, target, site_key, capped):
                if callee in inference.method_set:
                    round_changed.add(callee)


def run_scheduled(inference, manager=None, resume_state=None):
    """Entry point used by :meth:`AnekInference.run` for non-worklist
    executors.  ``manager``/``resume_state`` thread the durable run
    layer (checkpoint barriers after each level's merge, resume from a
    recorded ``(round, level)`` position)."""
    return LevelScheduler(inference).run(
        manager=manager, resume_state=resume_state
    )
