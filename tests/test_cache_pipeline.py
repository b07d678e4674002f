"""Persistent cache end-to-end: cold, warm, and disabled runs agree.

The cache must be invisible in the output: any combination of executor,
engine, and cache temperature produces bit-identical specs.  A warm run
of unchanged sources replays every visit from the store (no model
built, no BP sweep); warm runs after a one-method edit reuse every
untouched unit's artifacts and build strictly fewer models than a cold
run.
"""

import io

import pytest

from repro.cache import AnalysisCache
from repro.cli import main as cli_main
from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from tests.conftest import assert_replayed

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
    assert_replayed(warm.inference_stats)


@pytest.mark.parametrize(
    "knob",
    [{"engine": "loopy"}, {"threshold": 0.75}],
    ids=["engine", "threshold"],
)
def test_warm_start_across_identity_free_knobs(tmp_path, knob):
    """The engine and the threshold leave the cache identity: a run that
    differs from the warming (compiled, t = 0.5) run only in one of them
    replays every visit, and answers exactly as a cold run with that
    knob, under either schedule."""
    sources = [ITERATOR_API_SOURCE, CLIENT]
    for executor in ("worklist", "serial"):
        cache_dir = tmp_path / executor
        run_pipeline(sources, cache=AnalysisCache(cache_dir), executor=executor)
        warm = run_pipeline(
            sources, cache=AnalysisCache(cache_dir), executor=executor, **knob
        )
        cold = run_pipeline(sources, executor=executor, **knob)
        assert warm.cache_stats.misses() == 0, executor
        assert_replayed(warm.inference_stats)
        assert warm.inference_stats.solves == cold.inference_stats.solves
        assert warm.canonical_json(
            include_marginals=True
        ) == cold.canonical_json(include_marginals=True), executor


def test_warm_run_restores_without_solving(tmp_path):
    """An unchanged rerun replays the cold run's trajectory: every solved
    visit is one solve hit, every skip is skipped again."""
    sources = [ITERATOR_API_SOURCE, CLIENT]
    cold = run_pipeline(sources, cache=AnalysisCache(tmp_path / "c"))
    warm = run_pipeline(sources, cache=AnalysisCache(tmp_path / "c"))
    stats = warm.inference_stats
    assert_replayed(stats)
    assert stats.solves == cold.inference_stats.solves
    assert stats.skips == cold.inference_stats.skips
    moved = warm.cache_stats
    assert moved.solve_hits == stats.replays == cold.cache_stats.solve_misses
    assert moved.pfg_hits == stats.methods
    assert moved.parse_hits == len(sources)
    assert moved.misses() == 0


def test_cold_run_stores_only_layer_entries(tmp_path, monkeypatch):
    """After a cold cached run the store holds exactly the unit, PFG,
    solve and verdict entries that run saved, one per miss."""
    layers = {}
    key = AnalysisCache.key

    def recording(self, layer, content):
        full = key(self, layer, content)
        layers[full] = layer
        return full

    monkeypatch.setattr(AnalysisCache, "key", recording)
    cache_dir = tmp_path / "c"
    cold = AnekPipeline(cache=AnalysisCache(cache_dir)).run_on_sources(
        [ITERATOR_API_SOURCE, CLIENT]
    )
    stored = [path.stem for path in (cache_dir / "objects").rglob("*.pkl")]
    by_layer = {}
    for entry in stored:
        by_layer[layers[entry]] = by_layer.get(layers[entry], 0) + 1
    moved = cold.cache_stats
    assert by_layer == {
        "unit": moved.parse_misses,
        "pfg": moved.pfg_misses,
        "solve": moved.solve_misses,
        "verdict": moved.verdict_misses,
    }
    assert moved.hits() == 0


def test_applied_program_fingerprints_as_edited(tmp_path):
    """The applier edits units in place, so it drops the digests the
    parse layer stored with them: a cached run over the annotated
    program answers as a run over its rendered sources does."""
    cold = AnekPipeline(cache=AnalysisCache(tmp_path / "c")).run_on_sources(
        [ITERATOR_API_SOURCE, CLIENT]
    )
    assert cold.inferred_annotation_count > 0
    assert all(unit.digests is None for unit in cold.program.units)
    again = AnekPipeline(cache=AnalysisCache(tmp_path / "c")).run_on_program(
        cold.program
    )
    rendered = AnekPipeline().run_on_sources(cold.annotated_sources)
    assert again.canonical_json(
        include_marginals=True
    ) == rendered.canonical_json(include_marginals=True)


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
    # Only the edited method's 4 visits solve again...
    assert moved.solve_misses == 4
    assert moved.solve_hits == cold.cache_stats.solve_misses - 4
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
    # No solve/pfg artifacts were trusted or written.
    assert cache.stats.pfg_hits == cache.stats.solve_hits == 0
    assert cache.stats.pfg_misses == cache.stats.solve_misses == 0


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
    assert "(0 built, 0 reused" in warm_text and "replayed" in warm_text
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
