"""The invalidation matrix: what each kind of change re-does, exactly.

Content addressing means invalidation is never a guess — an artifact is
reused iff its inputs' fingerprints match.  Each test here makes one
kind of change against a warmed cache and asserts the exact layer
counters (parses, PFG builds, solves, check verdicts) that moved, plus
that the specs stay bit-identical to an uncached run over the same
sources.  The misses are exact whatever else ran against the directory
before.  The client has 10 checked methods: 7 in the Iterator API, 3 of
its own.
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

#: ``createAmountIter`` returns null: its inferred spec loses
#: ``unique(result)``, so its caller ``total``, whose own fingerprint is
#: unchanged, now warns.
EDIT_CALLEE_SPEC = CLIENT.replace(
    "return amounts.iterator();", "return null;"
)


def spec_map(result):
    return {
        ref.qualified_name: str(spec) for ref, spec in result.specs.items()
    }


def run_pipeline(sources, cache=None, settings=None, config=None):
    pipeline = AnekPipeline(config=config, settings=settings, cache=cache)
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
    assert moved.verdict_hits == cold.cache_stats.verdict_misses == 10
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
    # Its specs stay as they were, so only its own verdict is planned.
    assert (moved.verdict_hits, moved.verdict_misses) == (9, 1)
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
    # The callee's spec is unchanged: only its own verdict is planned.
    assert (moved.verdict_hits, moved.verdict_misses) == (9, 1)
    assert spec_map(warm) == spec_map(reference)


def test_callee_spec_change_plans_its_callers(warmed, monkeypatch):
    from repro.java.symbols import method_key
    from repro.plural import bitvector

    cache_dir, cold = warmed
    reference = run_pipeline([ITERATOR_API_SOURCE, EDIT_CALLEE_SPEC])
    planned = []
    partition = bitvector.BitVectorChecker.partition

    def recording(self, methods, failures=None):
        planned.extend(method_key(ref) for ref in methods)
        return partition(self, methods, failures=failures)

    monkeypatch.setattr(bitvector.BitVectorChecker, "partition", recording)
    warm = run_pipeline(
        [ITERATOR_API_SOURCE, EDIT_CALLEE_SPEC], cache=AnalysisCache(cache_dir)
    )
    moved = warm.cache_stats
    changed = {
        name for name, spec in spec_map(warm).items()
        if spec != spec_map(cold)[name]
    }
    assert changed == {"Ledger.createAmountIter"}
    # The callee (its body changed) and its one caller, whose own
    # fingerprint did not change but whose callee's spec did.
    assert sorted(planned) == ["Ledger.createAmountIter#1", "Ledger.total#2"]
    assert (moved.verdict_hits, moved.verdict_misses) == (8, 2)
    assert not cold.warnings
    assert [w.format() for w in warm.warnings] == [
        w.format() for w in reference.warnings
    ]
    assert {w.method for w in warm.warnings} == {"Ledger.total"}
    assert warm.canonical_json(include_marginals=True) == (
        reference.canonical_json(include_marginals=True)
    )


def test_callee_type_parameter_edit_rekeys_callers(tmp_path):
    """A method's type parameters decide whether its return type names a
    class or a type variable, which both the PFG builder and the checker
    read at every call of it; the interface digest keys on them, so the
    caller's artifacts miss and the answer equals a cold run's."""
    source = """
class Box {
    @Perm("share")
    Collection<Integer> items;
    %s Iterator<Integer> make() { return items.iterator(); }
}
class User {
    int go(Box b) {
        int sum = 0;
        Iterator<Integer> it = b.make();
        while (it.hasNext()) { sum = sum + it.next(); }
        return sum;
    }
}
"""
    generic = [ITERATOR_API_SOURCE, source % "<Iterator>"]
    plain = [ITERATOR_API_SOURCE, source % ""]
    cache_dir = tmp_path / "cache"
    run_pipeline(generic, cache=AnalysisCache(cache_dir))
    warm = run_pipeline(plain, cache=AnalysisCache(cache_dir))
    cold = run_pipeline(plain)
    assert run_pipeline(generic).canonical_json(include_marginals=True) != (
        cold.canonical_json(include_marginals=True)
    )
    assert warm.cache_stats.pfg_hits == 0
    assert warm.canonical_json(include_marginals=True) == (
        cold.canonical_json(include_marginals=True)
    )


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
    # re-extracted at 0.75.  The specs come out the same at 0.75, so
    # every verdict hits too.
    assert moved.misses() == 0
    assert moved.parse_hits == 2
    assert moved.final_hits == 1
    assert moved.verdict_hits == 10
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
    # Every solve runs again, but the specs come out the same, and a
    # verdict is keyed by specs, not by the heuristics behind them.
    assert (moved.verdict_hits, moved.verdict_misses) == (10, 0)
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
    assert moved.verdict_misses == 10
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
    assert (moved.verdict_hits, moved.verdict_misses) == (0, 10)
    assert spec_map(warm) == spec_map(cold)
    # The trashed entries were replaced: a third run is warm again.
    rewarmed = run_pipeline(
        [ITERATOR_API_SOURCE, CLIENT], cache=AnalysisCache(cache_dir)
    )
    assert rewarmed.inference_stats.warm_start
    assert rewarmed.cache_stats.misses() == 0
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
        moved = run_pipeline(a_edited, cache=AnalysisCache(cache_dir))
        moved = moved.cache_stats
        return moved.pfg_misses, moved.solve_misses, moved.verdict_misses

    shared = tmp_path / "shared"
    assert edit_misses([a, b], shared) == (1, 4, 1)
    assert edit_misses([a], tmp_path / "own") == (1, 4, 1)
    assert sorted(path.name for path in shared.iterdir()) == ["objects"]
