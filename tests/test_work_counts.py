"""Front-end work counts of one cold pipeline run.

A method is lowered once per stage that needs its CFG: once for its PFG
and its call targets (one CFG feeds both, and the call graph is built
from those targets), once for its tier-1 plan, and once more only when
tier 1 routes it to the tier-2 checker.  The counts are exact, so a
return to re-lowering fails here in one deterministic run.
"""

import pytest

from repro.analysis.cfg import _Builder
from repro.analysis.ir import Lowerer
from repro.core.pipeline import AnekPipeline
from repro.corpus.generator import CorpusSpec, generate_pmd_corpus
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
