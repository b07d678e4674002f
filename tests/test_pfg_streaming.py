"""PFG streaming under an RSS budget.

The scale-out tentpole extends ``--max-rss-mb`` shedding — previously
limited to the ModelCache — to the per-method factor graphs themselves:
at a checkpoint barrier over budget, ``AnekInference.pfgs`` (a
:class:`repro.core.pfgstore.PFGStore`) evicts every live PFG and
rehydrates them lazily from the persistent cache (or by deterministic
rebuild when no cache is attached).  This suite locks in the contract:
a run with an absurdly small budget sheds PFGs at every barrier and
still produces marginals bit-identical to the unbounded run, under
both schedules and both engines.
"""

import pytest

from repro.core.infer import AnekInference, InferenceSettings
from repro.core.pfgstore import PFGStore
from repro.corpus.examples import FIGURE3_CLIENT
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import method_key, resolve_program

SOURCES = [ITERATOR_API_SOURCE, FIGURE3_CLIENT]

EXECUTORS = ["worklist", "serial"]
ENGINES = ["compiled", "loopy"]


def fresh_program():
    return resolve_program(
        [parse_compilation_unit(source) for source in SOURCES]
    )


def snap(results):
    return {
        method_key(ref): {
            str(slot_target): marginal.to_payload()
            for slot_target, marginal in sorted(
                boundary.items(), key=lambda kv: str(kv[0])
            )
        }
        for ref, boundary in results.items()
    }


_REFS = {}


def unbounded_reference(executor, engine):
    """Memoized fault-free, budget-free marginals per configuration."""
    key = (executor, engine)
    if key not in _REFS:
        inference = AnekInference(
            fresh_program(),
            settings=InferenceSettings(executor=executor, engine=engine),
        )
        _REFS[key] = snap(inference.run())
    return _REFS[key]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("executor", EXECUTORS)
class TestBudgetedRunsMatchUnbounded:
    def test_sheds_pfgs_and_stays_bit_identical(
        self, tmp_path, executor, engine
    ):
        inference = AnekInference(
            fresh_program(),
            settings=InferenceSettings(
                executor=executor,
                engine=engine,
                run_dir=str(tmp_path),
                max_rss_mb=1,
            ),
        )
        results = snap(inference.run())
        assert results == unbounded_reference(executor, engine)
        assert inference.stats.sheds >= 1
        assert inference.stats.pfg_sheds >= 1
        # After a shed the store keeps membership but drops live graphs;
        # later passes/levels must pull some of them back in.
        assert inference.stats.pfg_rehydrations >= 1


class TestPFGStore:
    def test_known_survives_shed_and_rehydrates(self):
        program = fresh_program()
        inference = AnekInference(
            program, settings=InferenceSettings(executor="worklist")
        )
        inference.run()
        store = inference.pfgs
        assert isinstance(store, PFGStore)
        total = len(store)
        assert total > 0
        assert store.live_count() == total
        shed = store.shed()
        assert shed == total
        assert len(store) == total  # membership is not forgotten
        assert store.live_count() == 0
        ref = next(iter(store))
        assert ref in store
        rebuilt = store[ref]
        assert rebuilt is not None
        assert store.live_count() == 1
        assert inference.stats.pfg_rehydrations >= 1

    def test_unknown_ref_raises(self):
        inference = AnekInference(
            fresh_program(), settings=InferenceSettings(executor="worklist")
        )
        with pytest.raises(KeyError):
            inference.pfgs["not-a-method"]
        assert inference.pfgs.pop("not-a-method", None) is None

    def test_rehydrated_pfg_matches_original_shape(self):
        inference = AnekInference(
            fresh_program(), settings=InferenceSettings(executor="worklist")
        )
        inference.run()
        store = inference.pfgs
        before = {
            ref: (len(store[ref].nodes), len(store[ref].edges))
            for ref in store
        }
        store.shed()
        after = {
            ref: (len(store[ref].nodes), len(store[ref].edges))
            for ref in store
        }
        assert before == after


class TestShedRecords:
    def test_memory_shed_record_mentions_pfgs(self, tmp_path):
        inference = AnekInference(
            fresh_program(),
            settings=InferenceSettings(
                executor="worklist", run_dir=str(tmp_path), max_rss_mb=1
            ),
        )
        inference.run()
        shed_records = [
            r for r in inference.failures if r.disposition == "memory-shed"
        ]
        assert shed_records
        assert "PFG" in shed_records[0].message
