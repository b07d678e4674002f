"""The fault-injection differential harness.

The resilience tentpole's contract, locked in end to end:

* a run *completes* under every fault class (raise / nan / delay),
  with the :class:`FailureReport` listing exactly the injected
  failures;
* recovered-class faults (a transient failure with retries left) leave
  the results **bit-identical** to a fault-free run;
* quarantine-class faults hit exactly the faulted method under both
  schedules, and a quarantined unit behaves exactly like a removed one;
* a zero-fault resilient run is bit-identical to a run with resilience
  disabled;
* degraded results are never persisted to the analysis cache.
"""

import pytest

from repro.core.infer import AnekInference, InferenceSettings
from repro.core.pipeline import AnekPipeline
from repro.corpus.examples import FIGURE3_CLIENT
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import method_key, resolve_program
from repro.resilience.faults import (
    ENV_VAR,
    FaultSpec,
    clear_fault_plan,
    install_fault_plan,
)
from repro.resilience.policy import ResiliencePolicy
from tests.conftest import assert_replayed

SOURCES = [ITERATOR_API_SOURCE, FIGURE3_CLIENT]


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_fault_plan()
    yield
    clear_fault_plan()


def fresh_program(sources=None):
    return resolve_program(
        [parse_compilation_unit(source) for source in (sources or SOURCES)]
    )


def run_inference(executor="worklist", policy=None, sources=None,
                  cache=None):
    settings = InferenceSettings(executor=executor, policy=policy)
    inference = AnekInference(
        fresh_program(sources), settings=settings, cache=cache
    )
    results = inference.run()
    return inference, results


def snap(results):
    """Boundary marginals as plain comparable data, keyed by method key."""
    return {
        method_key(ref): {
            str(slot_target): marginal.to_payload()
            for slot_target, marginal in sorted(
                boundary.items(), key=lambda kv: str(kv[0])
            )
        }
        for ref, boundary in results.items()
    }


def some_method_key():
    """A stable method key from the corpus to aim keyed faults at."""
    program = fresh_program()
    refs = sorted(program.methods_with_bodies(), key=method_key)
    # Pick a client method (not the API's) so quarantining it leaves
    # plenty of unaffected methods to compare.
    return method_key(refs[-1])


class TestZeroFaultIdentity:
    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_resilient_equals_disabled(self, executor):
        _, guarded = run_inference(executor)
        _, legacy = run_inference(executor, ResiliencePolicy.disabled())
        assert snap(guarded) == snap(legacy)

    def test_resilient_loopy_equals_disabled(self):
        settings_on = InferenceSettings(engine="loopy")
        settings_off = InferenceSettings(
            engine="loopy", policy=ResiliencePolicy.disabled()
        )
        on = AnekInference(fresh_program(), settings=settings_on).run()
        off = AnekInference(fresh_program(), settings=settings_off).run()
        assert snap(on) == snap(off)


class TestRecoveredFaults:
    """Transient faults: retried with identical parameters, so the run's
    output is bit-identical to a clean one."""

    def _clean_snap(self):
        _, results = run_inference()
        return snap(results)

    def test_transient_solve_raise(self):
        install_fault_plan(
            [FaultSpec(stage="solve", key="", kind="raise", count=1)]
        )
        inference, results = run_inference()
        assert snap(results) == self._clean_snap()
        (record,) = list(inference.failures)
        assert record.stage == "solve"
        assert record.disposition == "recovered"
        assert record.retries == 1
        assert not inference.failures.has_degradation

    def test_transient_nan_divergence(self):
        install_fault_plan(
            [FaultSpec(stage="solve", key="", kind="nan", count=1)]
        )
        inference, results = run_inference()
        assert snap(results) == self._clean_snap()
        (record,) = list(inference.failures)
        assert record.disposition == "recovered"
        assert "diverged" in record.message


class TestDegradationFloor:
    def test_persistent_solve_fault_degrades_to_prior_only(self):
        install_fault_plan(
            [FaultSpec(stage="solve", key="", kind="raise", count=-1)]
        )
        inference, results = run_inference()
        # Every method still produced marginals (the prior-only floor)...
        assert len(results) == len(
            list(inference.program.methods_with_bodies())
        )
        assert inference.stats.degraded > 0
        assert inference.failures.has_degradation
        assert all(
            record.disposition == "degraded-prior-only"
            for record in inference.failures
        )
        # ...and spec extraction over them still works.
        specs = inference.extract_specs(results)
        assert len(specs) == len(results)

    def test_single_method_degrade_identical_across_executors(self):
        key = some_method_key()
        snaps = {}
        reports = {}
        for executor in ("worklist", "serial"):
            install_fault_plan(
                [FaultSpec(stage="solve", key=key, kind="raise", count=-1)]
            )
            inference, results = run_inference(executor)
            snaps[executor] = snap(results)
            reports[executor] = inference.failures
            clear_fault_plan()
        assert set(snaps["worklist"]) == set(snaps["serial"])
        assert snaps["worklist"][key] == snaps["serial"][key]
        for report in reports.values():
            assert report.has_degradation
            assert {r.key for r in report.degraded()} == {key}


class TestQuarantine:
    def test_pfg_fault_quarantines_one_method(self):
        key = some_method_key()
        install_fault_plan(
            [FaultSpec(stage="pfg", key=key, kind="raise", count=-1)]
        )
        inference, results = run_inference()
        (record,) = list(inference.failures)
        assert record.stage == "pfg"
        assert record.key == key
        assert record.disposition == "method-quarantined"
        assert inference.stats.quarantined == 1
        # The quarantined method gets a conservative empty entry at
        # extraction time; everyone else solved normally.
        specs = inference.extract_specs(results)
        assert len(specs) == len(list(inference.program.methods_with_bodies()))

    def test_method_quarantine_identical_across_executors(self):
        key = some_method_key()
        snaps = {}
        for executor in ("worklist", "serial"):
            install_fault_plan(
                [FaultSpec(stage="pfg", key=key, kind="raise", count=-1)]
            )
            inference, results = run_inference(executor)
            inference.extract_specs(results)
            snaps[executor] = snap(results)
            assert inference.stats.quarantined == 1
            clear_fault_plan()
        assert set(snaps["worklist"]) == set(snaps["serial"])
        assert snaps["worklist"][key] == snaps["serial"][key] == {}

    def test_constraints_fault_quarantines_one_method(self):
        key = some_method_key()
        install_fault_plan(
            [FaultSpec(stage="constraints", key=key, kind="raise", count=-1)]
        )
        inference, results = run_inference()
        records = list(inference.failures)
        assert records
        assert all(r.stage == "constraints" for r in records)
        assert all(r.disposition == "method-quarantined" for r in records)
        assert inference.stats.quarantined == 1
        assert results[
            next(
                ref
                for ref in results
                if method_key(ref) == key
            )
        ] == {}

    def test_parse_quarantine_equals_unit_removal(self):
        pipeline_with = AnekPipeline(run_checker=False)
        pipeline_without = AnekPipeline(run_checker=False)
        install_fault_plan(
            [FaultSpec(stage="parse", key="unit:1", kind="raise")]
        )
        faulted = pipeline_with.run_on_sources(SOURCES)
        clear_fault_plan()
        removed = pipeline_without.run_on_sources([ITERATOR_API_SOURCE])
        assert faulted.degraded
        assert {r.key for r in faulted.failures} == {"unit:1"}
        faulted_specs = {
            ref.qualified_name: str(spec)
            for ref, spec in faulted.specs.items()
        }
        removed_specs = {
            ref.qualified_name: str(spec)
            for ref, spec in removed.specs.items()
        }
        assert faulted_specs == removed_specs


class TestDegradedNeverCached:
    def test_degraded_run_does_not_poison_the_cache(self, tmp_path):
        from repro.cache import AnalysisCache

        cache_dir = str(tmp_path / "cache")
        clean_snap = snap(run_inference()[1])

        install_fault_plan(
            [FaultSpec(stage="solve", key="", kind="raise", count=-1)]
        )
        degraded_inference, _ = run_inference(
            cache=AnalysisCache(cache_dir=cache_dir)
        )
        clear_fault_plan()
        assert degraded_inference.failures.has_degradation

        warm_inference, warm_results = run_inference(
            cache=AnalysisCache(cache_dir=cache_dir)
        )
        assert warm_inference.failures.is_clean
        # No degraded outcome was stored, so nothing replays.
        assert warm_inference.stats.replays == 0
        assert warm_inference.stats.builds > 0
        assert snap(warm_results) == clean_snap

    def test_recovered_run_is_still_cacheable(self, tmp_path):
        from repro.cache import AnalysisCache

        cache_dir = str(tmp_path / "cache")
        clean_snap = snap(run_inference()[1])

        install_fault_plan(
            [FaultSpec(stage="solve", key="", kind="raise", count=1)]
        )
        recovered, _ = run_inference(cache=AnalysisCache(cache_dir=cache_dir))
        clear_fault_plan()
        assert recovered.failures
        assert not recovered.failures.has_degradation

        warm, warm_results = run_inference(
            cache=AnalysisCache(cache_dir=cache_dir)
        )
        assert_replayed(warm.stats)
        assert snap(warm_results) == clean_snap
