"""Incremental-analysis bench — the persistent cache's speedup claim.

Three pipeline runs over the largest generated benchmark program, all
against the same on-disk cache directory:

* **cold** — empty cache: every unit parses, every PFG builds, every
  model solves, and the artifacts are written out;
* **warm** — nothing changed: the final-results artifact restores the
  converged summary store wholesale (zero solves);
* **warm after edit** — one method body edited: the untouched unit and
  every untouched method's artifacts are reused, and only the visits
  whose inputs changed solve again.

The acceptance bar is warm >= 3x cold with bit-identical specs.
Results are written to ``BENCH_incremental.json`` at the repo root.
Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) for a smaller
program.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.cache import AnalysisCache
from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.generator import generate_branchy_program
from repro.corpus.iterator_api import ITERATOR_API_SOURCE

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"
METHOD_COUNT = 8 if QUICK else 24
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"


def _sources(edited=False):
    branchy = generate_branchy_program(METHOD_COUNT)
    if edited:
        # Body-only edit of the first method: one fingerprint changes.
        branchy = branchy.replace(
            "int acc = seed;", "int acc = seed;\n        int extra = 0;", 1
        )
    return [ITERATOR_API_SOURCE, branchy]


def _run(cache_dir, edited=False):
    pipeline = AnekPipeline(
        settings=InferenceSettings(),
        cache=AnalysisCache(cache_dir),
        run_checker=False,
    )
    start = time.perf_counter()
    result = pipeline.run_on_sources(_sources(edited=edited))
    seconds = time.perf_counter() - start
    stats = result.inference_stats
    moved = result.cache_stats
    return {
        "seconds": seconds,
        "specs": {
            ref.qualified_name: str(spec)
            for ref, spec in result.specs.items()
        },
        "warm_start": stats.warm_start,
        "solves": stats.solves,
        "builds": stats.builds,
        "replays": stats.replays,
        "parse_hits": moved.parse_hits,
        "parse_misses": moved.parse_misses,
        "pfg_hits": moved.pfg_hits,
        "pfg_misses": moved.pfg_misses,
        "solve_hits": moved.solve_hits,
        "solve_misses": moved.solve_misses,
        "final_hits": moved.final_hits,
        "hit_ratio": moved.hit_ratio(),
    }


def test_bench_incremental(benchmark):
    cache_dir = tempfile.mkdtemp(prefix="anek-bench-cache-")

    def run():
        shutil.rmtree(cache_dir, ignore_errors=True)
        cold = _run(cache_dir)
        warm = _run(cache_dir)
        edited = _run(cache_dir, edited=True)
        return cold, warm, edited

    try:
        cold, warm, edited = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    warm_speedup = cold["seconds"] / max(warm["seconds"], 1e-9)
    edit_speedup = cold["seconds"] / max(edited["seconds"], 1e-9)
    report = {
        "program": {"methods": METHOD_COUNT, "quick": QUICK},
        "cold": {k: v for k, v in cold.items() if k != "specs"},
        "warm": {k: v for k, v in warm.items() if k != "specs"},
        "warm_after_edit": {
            k: v for k, v in edited.items() if k != "specs"
        },
        "warm_speedup": warm_speedup,
        "warm_after_edit_speedup": edit_speedup,
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(
        "  cold       %.3fs  (%d solves, %d builds)"
        % (cold["seconds"], cold["solves"], cold["builds"])
    )
    print(
        "  warm       %.3fs  (%.1fx, full restore)"
        % (warm["seconds"], warm_speedup)
    )
    print(
        "  after edit %.3fs  (%.1fx; %d builds, %d replays, "
        "pfg %d/%d hit)"
        % (
            edited["seconds"],
            edit_speedup,
            edited["builds"],
            edited["replays"],
            edited["pfg_hits"],
            edited["pfg_hits"] + edited["pfg_misses"],
        )
    )
    print("  wrote      %s" % RESULT_PATH)

    # The cache must be invisible in the answer.
    assert warm["specs"] == cold["specs"]
    assert warm["warm_start"] and warm["solves"] == 0
    # One edited method: one re-parse, the rest reused.
    assert edited["parse_misses"] == 1
    # Exactly one method is lowered again.
    assert edited["pfg_misses"] == 1
    assert edited["builds"] < cold["builds"]
    # The acceptance bar: a warm re-run is >= 3x faster than cold.
    assert warm_speedup >= 3.0, (
        "warm re-run speedup %.2fx below 3x" % warm_speedup
    )
