"""Corpus scale-out bench — the paper's modularity claim, at scale.

"The algorithm generates probabilistic method summaries which enable a
modular analysis that can scale the inference to large programs."

This is the canonical scaling benchmark (it folds in and supersedes the
old ``test_bench_scaling`` subquadratic check).  It measures the
serial level-synchronous scheduler on two corpora from the *scale-out*
family (``CorpusSpec.scaled(factor)`` with factor > 1: frozen Table 2
warning core, interleaved stream protocol family, seeded filler call
chains) and asserts:

* **near-linear wall-clock** — in full mode (``REPRO_FULL_SCALE=1``),
  10x the methods may cost at most 13x the inference time, measured on
  a >= 30k-method corpus; quick mode (the
  default, and what the CI ``scale-smoke`` job runs) checks the growth
  between a 1x and 2x corpus stays far below quadratic.

Each point also records its solve count, a digest of its marginals and
its resident set at the end of the run.

Every measurement runs in a forked child process so corpus residency
and timings never contaminate each other.  Results go to
``BENCH_scale.json`` at the repo root.
"""

import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

FULL = os.environ.get("REPRO_FULL_SCALE", "") == "1"

SMALL_FACTOR = 1.001  # smallest factor on the scale-out path
BIG_FACTOR = 10.0 if FULL else 2.0
MAX_LINEAR_SLOWDOWN = 1.3  # full mode: 10x methods <= 13x time

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_scale.json"


def _child(conn, factor):
    """One measured run: generate, parse, infer; report over the pipe."""
    from repro.core.infer import AnekInference, InferenceSettings
    from repro.corpus import CorpusSpec, generate_pmd_corpus
    from repro.java.parser import parse_compilation_unit
    from repro.java.symbols import method_key, resolve_program
    from repro.resilience.limits import current_rss_mb

    bundle = generate_pmd_corpus(CorpusSpec().scaled(factor))
    parse_start = time.perf_counter()
    program = resolve_program(
        [parse_compilation_unit(s) for s in bundle.all_sources()]
    )
    parse_seconds = time.perf_counter() - parse_start
    settings = InferenceSettings(executor="serial")
    infer_start = time.perf_counter()
    inference = AnekInference(program, settings=settings)
    results = inference.run()
    infer_seconds = time.perf_counter() - infer_start
    digest = hashlib.sha256()
    for ref in sorted(results, key=method_key):
        digest.update(method_key(ref).encode("utf-8"))
        digest.update(
            json.dumps(
                [
                    (str(slot_target), marginal.to_payload())
                    for slot_target, marginal in sorted(
                        results[ref].items(), key=lambda kv: str(kv[0])
                    )
                ]
            ).encode("utf-8")
        )
    stats = inference.stats
    conn.send(
        {
            "factor": factor,
            "methods": bundle.spec.methods,
            "lines": bundle.spec.lines,
            "parse_seconds": parse_seconds,
            "infer_seconds": infer_seconds,
            "solves": stats.solves,
            "end_rss_mb": current_rss_mb(),
            "marginals_sha256": digest.hexdigest(),
        }
    )
    conn.close()


def _measure(factor):
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(child_conn, factor))
    proc.start()
    child_conn.close()
    payload = parent_conn.recv()
    proc.join()
    assert proc.exitcode == 0
    return payload


def test_bench_scale_out(benchmark):
    def run():
        small = _measure(SMALL_FACTOR)
        big = _measure(BIG_FACTOR)
        return small, big

    small, big = benchmark.pedantic(run, rounds=1, iterations=1)

    size_ratio = big["methods"] / small["methods"]
    time_ratio = big["infer_seconds"] / max(small["infer_seconds"], 1e-9)
    print()
    for point in (small, big):
        print(
            "  %6d methods  parse %6.2f s  infer %7.2f s  (%.2f ms/method)"
            % (
                point["methods"],
                point["parse_seconds"],
                point["infer_seconds"],
                1000.0 * point["infer_seconds"] / point["methods"],
            )
        )
    print(
        "  size x%.2f -> time x%.2f   end RSS %.0f MiB"
        % (size_ratio, time_ratio, big["end_rss_mb"])
    )

    # Near-linear scaling of the scheduler.
    if FULL:
        assert big["methods"] >= 30000
        assert time_ratio <= MAX_LINEAR_SLOWDOWN * size_ratio
    # In every mode the growth must stay far below quadratic (the old
    # test_bench_scaling floor).
    assert time_ratio < size_ratio ** 2

    report = {
        "bench": "scale",
        "mode": "full" if FULL else "quick",
        "executor": "serial",
        "engine": "compiled",
        "points": [small, big],
        "size_ratio": round(size_ratio, 3),
        "time_ratio": round(time_ratio, 3),
        "max_time_ratio_allowed": (
            round(MAX_LINEAR_SLOWDOWN * size_ratio, 3)
            if FULL
            else round(size_ratio ** 2, 3)
        ),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
