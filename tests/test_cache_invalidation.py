"""The invalidation matrix: what each kind of change re-does, exactly.

Content addressing means invalidation is never a guess — an artifact is
reused iff its inputs' fingerprints match.  Each test here makes one
kind of change against a warmed cache and asserts the exact layer
counters (parses, PFG builds, solves) that moved, plus that the specs
stay bit-identical to an uncached run over the same sources.  The
misses are exact whatever else ran against the directory before.
"""

import pytest

from repro.cache import AnalysisCache
from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.examples import FIGURE3_CLIENT
from repro.corpus.generator import generate_branchy_program
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

#: ``total`` (a leaf caller) gains a dead local — body-only edit.
EDIT_CALLER = CLIENT.replace(
    "int sum = 0;", "int sum = 0;\n        int extra = 0;"
)

#: ``createAmountIter`` (called by ``total``) gains a dead statement —
#: the *callee* changes, the caller's own fingerprint does not.
EDIT_CALLEE = CLIENT.replace(
    "return amounts.iterator();",
    "int unused = 0;\n        return amounts.iterator();",
)


def spec_map(result):
    return {
        ref.qualified_name: str(spec) for ref, spec in result.specs.items()
    }


def run_pipeline(sources, cache=None, settings=None, config=None):
    pipeline = AnekPipeline(
        config=config, settings=settings, cache=cache, run_checker=False
    )
    return pipeline.run_on_sources(sources)


@pytest.fixture
def warmed(tmp_path):
    """A cache warmed by a cold run over the unedited sources."""
    cache_dir = tmp_path / "cache"
    cold = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT], cache=AnalysisCache(cache_dir)
    )
    return cache_dir, cold


def test_no_change_restores_everything(warmed):
    cache_dir, cold = warmed
    warm = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT], cache=AnalysisCache(cache_dir)
    )
    moved = warm.cache_stats
    assert moved.misses() == 0
    assert moved.final_hits == 1
    assert warm.inference_stats.solves == 0
    assert spec_map(warm) == spec_map(cold)


def test_edit_method_body(warmed):
    cache_dir, cold = warmed
    warm = run_pipeline(
        [ITERATOR_API_SOURCE, EDIT_CALLER], cache=AnalysisCache(cache_dir)
    )
    reference = run_pipeline([ITERATOR_API_SOURCE, EDIT_CALLER])
    moved = warm.cache_stats
    # Only the edited unit re-parses; only the edited method re-builds.
    assert moved.parse_misses == 1 and moved.parse_hits == 1
    assert moved.pfg_misses == 1
    assert moved.pfg_hits == cold.cache_stats.pfg_misses - 1
    # Only ``total``'s own 4 visits solve again: nothing calls it, and
    # its dead local deposits the same evidence into its callees.
    assert moved.solve_misses == 4
    assert moved.solve_hits == cold.cache_stats.solve_misses - 4
    assert warm.inference_stats.builds < cold.inference_stats.builds
    assert spec_map(warm) == spec_map(reference)


def test_edit_callee_only(warmed):
    cache_dir, cold = warmed
    warm = run_pipeline(
        [ITERATOR_API_SOURCE, EDIT_CALLEE], cache=AnalysisCache(cache_dir)
    )
    reference = run_pipeline([ITERATOR_API_SOURCE, EDIT_CALLEE])
    moved = warm.cache_stats
    # One method changed -> one PFG rebuild; the caller's own artifacts
    # are keyed by *its* fingerprint and all hit.
    assert moved.pfg_misses == 1
    assert moved.pfg_hits == cold.cache_stats.pfg_misses - 1
    # Only the callee's own 5 visits solve again.  Its dead statement
    # leaves its summary as it was, so the caller ``total``'s input
    # tokens, and with them its 4 visits, all hit.
    assert moved.solve_misses == 5
    assert moved.solve_hits == cold.cache_stats.solve_misses - 5
    assert spec_map(warm) == spec_map(reference)


def test_change_threshold_keeps_frontend(warmed):
    cache_dir, cold = warmed
    warm = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT],
        cache=AnalysisCache(cache_dir),
        settings=InferenceSettings(threshold=0.75),
    )
    reference = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT],
        settings=InferenceSettings(threshold=0.75),
    )
    moved = warm.cache_stats
    # The threshold is read only by extraction, so it keys nothing:
    # every parse hits and the final marginals restore whole, to be
    # re-extracted at 0.75.
    assert moved.misses() == 0
    assert moved.parse_hits == 2
    assert moved.final_hits == 1
    assert warm.inference_stats.warm_start
    assert spec_map(warm) == spec_map(reference)


def test_change_heuristic_config_keeps_frontend(warmed):
    from repro.core.heuristics import HeuristicConfig

    cache_dir, cold = warmed
    config = HeuristicConfig(h_constructor_unique=0.9)
    warm = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT],
        cache=AnalysisCache(cache_dir),
        config=config,
    )
    reference = run_pipeline([ITERATOR_API_SOURCE, CLIENT], config=config)
    moved = warm.cache_stats
    assert moved.pfg_misses == 0
    assert moved.pfg_hits == cold.cache_stats.pfg_misses
    assert moved.solve_hits == 0 and moved.final_hits == 0
    assert spec_map(warm) == spec_map(reference)


def test_schema_tag_bump_invalidates_everything(warmed):
    cache_dir, cold = warmed
    bumped = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT],
        cache=AnalysisCache(cache_dir, schema_tag="anek-cache-v999"),
    )
    moved = bumped.cache_stats
    assert moved.hits() == 0
    assert moved.parse_misses == 2
    assert moved.pfg_misses == cold.cache_stats.pfg_misses
    assert spec_map(bumped) == spec_map(cold)


def test_corrupt_entries_fall_back_to_cold(warmed):
    cache_dir, cold = warmed
    # Trash every stored artifact: garbage bytes and a truncated pickle.
    objects = sorted((cache_dir / "objects").rglob("*.pkl"))
    assert objects
    for index, path in enumerate(objects):
        if index % 2 == 0:
            path.write_bytes(b"not a pickle")
        else:
            path.write_bytes(path.read_bytes()[:3])
    with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
        warm = run_pipeline(
            [ITERATOR_API_SOURCE, CLIENT], cache=AnalysisCache(cache_dir)
        )
    moved = warm.cache_stats
    assert moved.corrupt_entries > 0
    assert spec_map(warm) == spec_map(cold)
    # The trashed entries were replaced: a third run is warm again.
    rewarmed = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT], cache=AnalysisCache(cache_dir)
    )
    assert rewarmed.inference_stats.warm_start
    assert spec_map(rewarmed) == spec_map(cold)


def test_edit_counts_ignore_another_program_in_between(tmp_path):
    """Another program run between a program and its edit leaves the
    edit's counts as they are in a directory of its own: every count
    comes from the content-addressed store, and the store is all the
    directory holds."""
    program = generate_branchy_program(8)
    a = [ITERATOR_API_SOURCE, program]
    b = [ITERATOR_API_SOURCE, FIGURE3_CLIENT]
    # The incremental bench's edit: one method body.
    a_edited = [
        ITERATOR_API_SOURCE,
        program.replace(
            "int acc = seed;", "int acc = seed;\n        int extra = 0;", 1
        ),
    ]

    def edit_misses(runs_before, cache_dir):
        for sources in runs_before:
            run_pipeline(sources, cache=AnalysisCache(cache_dir))
        edited = run_pipeline(a_edited, cache=AnalysisCache(cache_dir))
        return edited.cache_stats.pfg_misses, edited.cache_stats.solve_misses

    shared = tmp_path / "shared"
    assert edit_misses([a, b], shared) == (1, 4)
    assert edit_misses([a], tmp_path / "own") == (1, 4)
    assert sorted(path.name for path in shared.iterdir()) == ["objects"]
