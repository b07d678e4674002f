"""Persistent cache end-to-end: cold, warm, and disabled runs agree.

The cache must be invisible in the output: any combination of executor,
engine, and cache temperature produces bit-identical specs.  Warm runs
restore the converged summary store wholesale (zero solves); warm runs
after a one-method edit reuse every untouched unit's artifacts and build
strictly fewer models than a cold run.
"""

import io

import pytest

from repro.cache import AnalysisCache
from repro.cli import main as cli_main
from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.iterator_api import ITERATOR_API_SOURCE

CLIENT = """
class Ledger {
    @Perm("share")
    Collection<Integer> amounts;

    Ledger() {
        this.amounts = new ArrayList<Integer>();
    }

    Iterator<Integer> createAmountIter() {
        return amounts.iterator();
    }

    int total() {
        int sum = 0;
        Iterator<Integer> it = createAmountIter();
        while (it.hasNext()) {
            sum = sum + it.next();
        }
        return sum;
    }
}
"""

#: Body-only edit of ``total`` — adds a dead local, changing one method
#: fingerprint while leaving every signature (and the other unit) alone.
CLIENT_EDITED = CLIENT.replace(
    "int sum = 0;", "int sum = 0;\n        int extra = 0;"
)


def spec_map(result):
    return {
        ref.qualified_name: str(spec) for ref, spec in result.specs.items()
    }


def run_pipeline(sources, cache=None, **settings):
    settings = InferenceSettings(**settings)
    pipeline = AnekPipeline(settings=settings, cache=cache, run_checker=False)
    return pipeline.run_on_sources(sources)


@pytest.mark.parametrize("executor", ["worklist", "serial"])
def test_cold_warm_disabled_specs_identical(tmp_path, executor):
    sources = [ITERATOR_API_SOURCE, CLIENT]
    disabled = run_pipeline(sources, cache=None, executor=executor)
    cold = run_pipeline(
        sources, cache=AnalysisCache(tmp_path / "c"), executor=executor
    )
    warm = run_pipeline(
        sources, cache=AnalysisCache(tmp_path / "c"), executor=executor
    )
    assert spec_map(disabled) == spec_map(cold) == spec_map(warm)
    assert disabled.cache_stats is None
    assert cold.cache_stats.hits() == 0
    assert warm.cache_stats.misses() == 0
    assert warm.inference_stats.warm_start


@pytest.mark.parametrize(
    "knob",
    [{"engine": "loopy"}, {"threshold": 0.75}],
    ids=["engine", "threshold"],
)
def test_warm_start_across_identity_free_knobs(tmp_path, knob):
    """The engine and the threshold leave the cache identity: a run that
    differs from the warming (compiled, t = 0.5) run only in one of them
    is restored whole, and answers exactly as a cold run with that knob."""
    sources = [ITERATOR_API_SOURCE, CLIENT]
    run_pipeline(sources, cache=AnalysisCache(tmp_path / "c"))
    warm = run_pipeline(sources, cache=AnalysisCache(tmp_path / "c"), **knob)
    cold = run_pipeline(sources, **knob)
    assert warm.cache_stats.final_hits == 1
    assert warm.inference_stats.warm_start
    assert warm.inference_stats.solves == 0
    assert warm.canonical_json(include_marginals=True) == cold.canonical_json(
        include_marginals=True
    )


def test_warm_run_restores_without_solving(tmp_path):
    sources = [ITERATOR_API_SOURCE, CLIENT]
    run_pipeline(sources, cache=AnalysisCache(tmp_path / "c"))
    warm = run_pipeline(sources, cache=AnalysisCache(tmp_path / "c"))
    stats = warm.inference_stats
    assert stats.warm_start
    assert stats.solves == 0
    assert stats.builds == 0
    moved = warm.cache_stats
    assert moved.final_hits == 1
    assert moved.parse_hits == len(sources)
    assert moved.misses() == 0


def test_warm_after_edit_reuses_untouched_units(tmp_path):
    cache_dir = tmp_path / "c"
    cold = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT], cache=AnalysisCache(cache_dir)
    )
    warm = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT_EDITED], cache=AnalysisCache(cache_dir)
    )
    reference = run_pipeline([ITERATOR_API_SOURCE, CLIENT_EDITED], cache=None)
    # Same answer as an uncached run over the edited sources.
    assert spec_map(warm) == spec_map(reference)
    moved = warm.cache_stats
    # The untouched unit's parse and every untouched method's PFG hit.
    assert moved.parse_hits == 1 and moved.parse_misses == 1
    assert moved.pfg_misses == 1
    assert moved.pfg_hits == cold.cache_stats.pfg_misses - 1
    # Only the edited method re-enters the constraint pipeline...
    assert moved.invalidated_methods == 1
    # ...so strictly fewer models are built than the cold run built,
    # and strictly fewer BP solves actually execute (the rest replay).
    assert warm.inference_stats.builds < cold.inference_stats.builds
    warm_solved = warm.inference_stats.builds + warm.inference_stats.reuses
    cold_solved = cold.inference_stats.builds + cold.inference_stats.reuses
    assert warm_solved < cold_solved
    assert warm.inference_stats.replays > 0


def test_warm_after_edit_matches_cold_across_executors(tmp_path):
    reference = run_pipeline([ITERATOR_API_SOURCE, CLIENT_EDITED], cache=None)
    for executor in ("worklist", "serial"):
        cache_dir = tmp_path / executor
        run_pipeline(
            [ITERATOR_API_SOURCE, CLIENT],
            cache=AnalysisCache(cache_dir),
            executor=executor,
        )
        warm = run_pipeline(
            [ITERATOR_API_SOURCE, CLIENT_EDITED],
            cache=AnalysisCache(cache_dir),
            executor=executor,
        )
        assert spec_map(warm) == spec_map(reference), executor


def test_custom_heuristics_disable_cache(tmp_path):
    from repro.core.heuristics import CustomHeuristic, HeuristicConfig

    config = HeuristicConfig(
        custom=(
            CustomHeuristic(
                "H-test",
                lambda pfg, node: node is pfg.result_node,
                lambda kind: kind == "unique",
                0.8,
            ),
        )
    )
    cache = AnalysisCache(tmp_path / "c")
    pipeline = AnekPipeline(config=config, cache=cache, run_checker=False)
    with pytest.warns(RuntimeWarning, match="custom heuristics"):
        pipeline.run_on_sources([ITERATOR_API_SOURCE, CLIENT])
    assert cache.stats.uncacheable
    # No solve/pfg/final artifacts were trusted or written.
    assert cache.stats.pfg_hits == cache.stats.solve_hits == 0
    assert cache.stats.final_misses == 0


def _cli_infer(tmp_path, source_path, *extra):
    out = io.StringIO()
    argv = [
        "infer",
        str(source_path),
        "--cache-dir",
        str(tmp_path / "cli-cache"),
        "--cache-stats",
    ]
    argv.extend(extra)
    code = cli_main(argv, out)
    assert code == 0
    return out.getvalue()


def test_cli_cache_flags(tmp_path):
    source_path = tmp_path / "Ledger.java"
    source_path.write_text(CLIENT)
    cold_text = _cli_infer(tmp_path, source_path)
    warm_text = _cli_infer(tmp_path, source_path)
    assert "analysis cache:" in cold_text
    assert "warm start" in warm_text
    # The spec listing is identical between temperatures.
    cold_specs = cold_text.split("Inferred specifications:")[1]
    warm_specs = warm_text.split("Inferred specifications:")[1]
    assert cold_specs == warm_specs

    out = io.StringIO()
    code = cli_main(["infer", str(source_path), "--no-cache"], out)
    assert code == 0
    no_cache_text = out.getvalue()
    assert "analysis cache:" not in no_cache_text
    assert "cache" not in no_cache_text.split("\n")[1]  # extractor stage
    assert (
        no_cache_text.split("Inferred specifications:")[1] == cold_specs
    )
