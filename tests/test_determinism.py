"""Determinism guarantees of the pipeline — satellite of the parallel PR.

Three layers of protection:

* two runs in the same process produce byte-identical annotated sources
  and identical solve counts (no hidden dict/set iteration order in the
  hot path);
* two *subprocesses* with different ``PYTHONHASHSEED`` values agree —
  this is the test that caught the ``set``-iteration joins in
  ``repro.analysis.alias`` and ``repro.plural.context``, which are now
  insertion-ordered;
* a lint-style guard keeps wall-clock code on ``time.perf_counter()``
  (the monotonic high-resolution clock) — ``time.time()`` is banned from
  the timing-critical modules.
"""

import os
import subprocess
import sys

import pytest

from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.examples import figure3_sources
from repro.corpus.iterator_api import ITERATOR_API_SOURCE

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CLIENT = """
class Tally {
    @Perm("share")
    Collection<Integer> values;

    Iterator<Integer> freshIter() {
        return values.iterator();
    }

    int count() {
        int n = 0;
        Iterator<Integer> it = freshIter();
        while (it.hasNext()) {
            it.next();
            n = n + 1;
        }
        return n;
    }
}
"""


def run_pipeline(executor="worklist"):
    pipeline = AnekPipeline(settings=InferenceSettings(executor=executor))
    return pipeline.run_on_sources([ITERATOR_API_SOURCE, CLIENT])


@pytest.mark.parametrize("executor", ["worklist", "serial"])
def test_repeated_runs_are_byte_identical(executor):
    first = run_pipeline(executor)
    second = run_pipeline(executor)
    assert first.annotated_sources == second.annotated_sources
    # Every work counter repeats, not only the output.
    assert (
        first.inference_stats.work_counters()
        == second.inference_stats.work_counters()
    )


def test_figure3_runs_are_byte_identical():
    pipeline_a = AnekPipeline()
    pipeline_b = AnekPipeline()
    first = pipeline_a.run_on_sources(figure3_sources())
    second = pipeline_b.run_on_sources(figure3_sources())
    assert first.annotated_sources == second.annotated_sources
    assert first.inference_stats.solves == second.inference_stats.solves


_SUBPROCESS_SCRIPT = """
import sys
from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.examples import figure3_sources

pipeline = AnekPipeline(settings=InferenceSettings(executor=%r))
result = pipeline.run_on_sources(figure3_sources())
for source in result.annotated_sources:
    sys.stdout.write(source)
    sys.stdout.write("\\n=== file boundary ===\\n")
sys.stdout.write("solves=%%d\\n" %% result.inference_stats.solves)
"""


def _run_with_hash_seed(seed, executor):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT % executor],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
        check=True,
    )
    return completed.stdout


@pytest.mark.parametrize("executor", ["worklist", "serial"])
def test_output_is_hash_seed_independent(executor):
    """Different string-hash seeds (fresh interpreters) must not change
    the annotated output — set/dict iteration cannot leak into results."""
    first = _run_with_hash_seed(1, executor)
    second = _run_with_hash_seed(2, executor)
    assert first == second
    assert "solves=" in first


TIMING_CRITICAL_SOURCES = [
    "src/repro/core/infer.py",
    "src/repro/core/pipeline.py",
    "src/repro/reporting/experiments.py",
    "benchmarks/conftest.py",
]


@pytest.mark.parametrize("relative_path", TIMING_CRITICAL_SOURCES)
def test_no_wall_clock_time_in_timing_code(relative_path):
    """Elapsed-time measurement must use time.perf_counter(), which is
    monotonic and high-resolution; time.time() can go backwards under
    NTP adjustment and has platform-dependent granularity."""
    path = os.path.join(REPO_ROOT, relative_path)
    with open(path) as handle:
        text = handle.read()
    assert "time.time(" not in text, (
        "%s uses time.time(); use time.perf_counter() for durations"
        % relative_path
    )
