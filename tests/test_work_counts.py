"""Front-end and checker work counts of cold and warm pipeline runs.

A cold run lowers a method once per stage that needs its CFG: once for
its PFG and its call targets (one CFG feeds both, and the call graph is
built from those targets), once for its tier-1 plan, and once more only
when tier 1 routes it to the tier-2 checker.

A warm run against the persistent cache lowers and plans only what an
edit can change.  A method's PFG is rebuilt only when its fingerprint
changed, and its tier-1 plan only when its fingerprint, its own spec or
a callee's spec changed; every other verdict is replayed.  The tier-2
residue is re-checked on every run.  An unchanged rerun restores the
whole run and lowers nothing.

The counts are exact, so a return to re-lowering or re-planning fails
here in one deterministic run.
"""

import pytest

from repro.analysis.cfg import _Builder
from repro.analysis.ir import Lowerer
from repro.cache import AnalysisCache
from repro.core.pipeline import AnekPipeline
from repro.corpus.generator import CorpusSpec, generate_pmd_corpus
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.symbols import method_key
from repro.plural import bitvector
from tests.test_parallel_differential import CORPUS

INPUTS = dict(
    CORPUS,
    generated=generate_pmd_corpus(
        CorpusSpec(seed=100, filler_call_density=0.12).scaled(0.03)
    ).all_sources(),
)


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``Lowerer.lower`` and of the CFG builder, patched on the
    classes so every importer is counted."""
    tally = {"lowerings": 0, "cfg_builds": 0}

    def counting(name, original):
        def counted(self):
            tally[name] += 1
            return original(self)

        return counted

    monkeypatch.setattr(Lowerer, "lower", counting("lowerings", Lowerer.lower))
    monkeypatch.setattr(
        _Builder, "build", counting("cfg_builds", _Builder.build)
    )
    return tally


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_each_stage_lowers_each_method_once(name, counts):
    result = AnekPipeline().run_on_sources(INPUTS[name])
    methods = result.inference_stats.methods
    assert result.check.tier == "auto"
    assert not result.failures.records
    # PFG stage + tier-1 plans + the tier-2 residue.
    per_stage = methods + methods + result.check.tier2_methods
    assert counts == {"lowerings": per_stage, "cfg_builds": per_stage}


# ---------------------------------------------------------------------------
# Warm runs
# ---------------------------------------------------------------------------

#: A project of the edit-warm benchmark's shape (47 methods).
PROJECT = [ITERATOR_API_SOURCE] + list(
    generate_pmd_corpus(
        CorpusSpec(seed=0, filler_call_density=0.12).scaled(0.015)
    ).sources
)

#: A filler constant: a body edit that changes no spec.
FILLER = ("        int a = x + 1;\n", "        int a = x + 1001;\n")

#: ``consumeFirst`` draws one more element before it returns: its own
#: spec changes (``pure(it)`` becomes ``full(it)``), no other spec does.
CONSUME_FIRST = (
    "            v = v + 1;\n        }\n        return v;",
    "            v = v + 1;\n        }\n        v = v + it.next() + 7;\n"
    "        return v;",
)


def edited(edit):
    old, new = edit
    (index,) = [i for i, text in enumerate(PROJECT) if old in text]
    sources = list(PROJECT)
    sources[index] = sources[index].replace(old, new, 1)
    return sources


@pytest.fixture
def planned(monkeypatch):
    """Tier-1 work: the method keys of every ``partition`` call and the
    number of plans built."""
    tally = {"partitioned": [], "plans": 0}
    partition = bitvector.BitVectorChecker.partition
    build = bitvector._PlanBuilder.build

    def recording(self, methods, failures=None):
        methods = list(methods)
        tally["partitioned"].append([method_key(ref) for ref in methods])
        return partition(self, methods, failures=failures)

    def counted(self):
        tally["plans"] += 1
        return build(self)

    monkeypatch.setattr(bitvector.BitVectorChecker, "partition", recording)
    monkeypatch.setattr(bitvector._PlanBuilder, "build", counted)
    return tally


@pytest.fixture
def warm_cache(tmp_path, counts, planned):
    """A cache filled by a cold run over ``PROJECT``; the counters start
    at zero after it.  Returns (cache directory, the cold run)."""
    cache_dir = tmp_path / "cache"
    cold = AnekPipeline(cache=AnalysisCache(cache_dir)).run_on_sources(PROJECT)
    methods = cold.inference_stats.methods
    assert cold.cache_stats.verdict_misses == methods
    assert planned["plans"] == methods
    counts.update(lowerings=0, cfg_builds=0)
    planned.update(partitioned=[], plans=0)
    return cache_dir, cold


def warm_run(cache_dir, sources):
    result = AnekPipeline(cache=AnalysisCache(cache_dir)).run_on_sources(
        sources
    )
    assert not result.failures.records
    return result


def spec_changes(before, after):
    old = {method_key(ref): str(spec) for ref, spec in before.specs.items()}
    new = {method_key(ref): str(spec) for ref, spec in after.specs.items()}
    return {key for key in old if old[key] != new[key]}


def test_unchanged_rerun_plans_nothing(warm_cache, counts, planned):
    cache_dir, cold = warm_cache
    warm = warm_run(cache_dir, PROJECT)
    assert warm.inference_stats.warm_start
    # Only the tier-2 residue, the four methods with a warning, is
    # lowered: it is checked again on every run.
    assert warm.check.tier2_methods == 4
    assert counts == {"lowerings": 4, "cfg_builds": 4}
    assert planned == {"partitioned": [], "plans": 0}
    assert warm.cache_stats.verdict_misses == 0
    assert warm.cache_stats.verdict_hits == cold.inference_stats.methods
    assert warm.check.to_payload() == dict(
        cold.check.to_payload(),
        tier1_seconds=warm.check.tier1_seconds,
        tier2_seconds=warm.check.tier2_seconds,
    )


def test_body_edit_plans_only_the_edited_method(warm_cache, counts, planned):
    cache_dir, cold = warm_cache
    warm = warm_run(cache_dir, edited(FILLER))
    assert not spec_changes(cold, warm)
    # The edited method's PFG and plan, then the tier-2 residue.
    per_stage = 1 + 1 + warm.check.tier2_methods
    assert counts == {"lowerings": per_stage, "cfg_builds": per_stage}
    assert planned == {"partitioned": [["Util0.op0#0"]], "plans": 1}
    assert warm.cache_stats.verdict_misses == 1
    assert warm.cache_stats.verdict_hits == cold.inference_stats.methods - 1


def test_spec_edit_plans_the_method_and_its_callers(
    warm_cache, counts, planned
):
    cache_dir, cold = warm_cache
    warm = warm_run(cache_dir, edited(CONSUME_FIRST))
    assert spec_changes(cold, warm) == {"Helper.consumeFirst#0"}
    (keys,) = planned["partitioned"]
    assert set(keys) == {
        "Helper.consumeFirst#0",
        "Helper.safeFirst0#1",
        "Helper.safeFirst1#2",
    }
    assert planned["plans"] == 3
    assert warm.cache_stats.verdict_misses == 3
    per_stage = 1 + 3 + warm.check.tier2_methods
    assert counts == {"lowerings": per_stage, "cfg_builds": per_stage}
