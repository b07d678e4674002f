"""Parallel-scheduler bench — the tentpole's speedup claim.

Compares the sequential worklist engine against the level-synchronous
scheduler (process executor, default job count) on the multi-method PMD
corpus.  The scheduler must not be slower: its dirty tracking and
convergence early-exit do strictly less solving than the worklist's
fixed iteration budget, so even on one CPU the speedup stays >= 1.0x,
and on multi-core machines the process pool adds real parallelism on
top.

The bench also cross-checks the two engines' outputs: annotation counts
must match, so the speedup is not bought with lost precision.
"""

import time

from repro.core import AnekPipeline, InferenceSettings
from repro.core.extract import count_nonempty
from repro.corpus import generate_pmd_corpus
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program


def _build_program(spec):
    bundle = generate_pmd_corpus(spec)
    return resolve_program(
        [parse_compilation_unit(s) for s in bundle.all_sources()]
    )


def _run_engine(spec, executor, jobs=0):
    program = _build_program(spec)
    pipeline = AnekPipeline(
        settings=InferenceSettings(executor=executor, jobs=jobs),
        run_checker=False,
        apply_annotations=False,
    )
    start = time.perf_counter()
    result = pipeline.run_on_program(program)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "annotations": count_nonempty(result.specs),
        "stats": result.inference_stats,
    }


def test_bench_parallel_speedup(benchmark, bench_corpus_spec):
    def run():
        sequential = _run_engine(bench_corpus_spec, "worklist")
        parallel = _run_engine(bench_corpus_spec, "process", jobs=0)
        return sequential, parallel

    sequential, parallel = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = sequential["seconds"] / max(parallel["seconds"], 1e-9)
    print()
    print(
        "  worklist  %6.2f s  (%d solves, %d annotations)"
        % (
            sequential["seconds"],
            sequential["stats"].solves,
            sequential["annotations"],
        )
    )
    print(
        "  process   %6.2f s  (%d solves, %d annotations, %d jobs, "
        "%d levels, %d rounds)"
        % (
            parallel["seconds"],
            parallel["stats"].solves,
            parallel["annotations"],
            parallel["stats"].jobs,
            parallel["stats"].levels,
            parallel["stats"].rounds,
        )
    )
    print("  speedup   %.2fx" % speedup)
    assert parallel["stats"].executor == "process"
    # The scheduler trades the worklist's fixed iteration budget for
    # dirty tracking; it must never do more solves.
    assert parallel["stats"].solves <= sequential["stats"].solves
    # Same precision: the engines annotate the same number of methods.
    assert parallel["annotations"] == sequential["annotations"]
    assert speedup >= 1.0


def test_bench_executor_ladder(benchmark, bench_corpus_spec):
    """Serial vs process on identical input: the scheduled executors
    must agree on solve counts (differential guarantee) and stay within
    a sane factor of one another."""

    def run():
        return {
            executor: _run_engine(bench_corpus_spec, executor)
            for executor in ("serial", "process")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for executor, outcome in results.items():
        print(
            "  %-8s %6.2f s  (%d solves, %d annotations)"
            % (
                executor,
                outcome["seconds"],
                outcome["stats"].solves,
                outcome["annotations"],
            )
        )
    solves = {outcome["stats"].solves for outcome in results.values()}
    annotations = {
        outcome["annotations"] for outcome in results.values()
    }
    assert len(solves) == 1, "executors disagreed on solve count: %s" % solves
    assert len(annotations) == 1, (
        "executors disagreed on annotations: %s" % annotations
    )
