"""Served ≡ cold: the serving layer's determinism contract.

A ``repro serve`` response must be *bit-identical* — same canonical
JSON, floats included — to a cold CLI/pipeline run of the same request:
across engines, with and without a warm cache, through the real CLI
subprocess path, and under concurrent clients.  This suite is the
executable form of DESIGN §12's determinism argument.
"""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.cache import AnalysisCache
from repro.core import AnekPipeline, InferenceSettings
from repro.serve import ServeClient
from tests.serve_harness import (
    BROKEN_CLIENT,
    LEDGER_CLIENT,
    SCANNER_CLIENT,
    canonical_json,
    cold_result,
    running_server,
)


@pytest.mark.parametrize("engine", ["compiled", "loopy"])
def test_served_infer_bit_identical_to_cold(tmp_path, engine):
    """The daemon always runs the compiled engine; its answer equals a
    cold run on either engine, the loopy reference included."""
    cold = cold_result([LEDGER_CLIENT], engine=engine)
    expected = canonical_json(cold.canonical_payload(include_marginals=True))
    with running_server(tmp_path) as server:
        with ServeClient(server.address) as client:
            response = client.infer([LEDGER_CLIENT], include_marginals=True)
    assert response["status"] == "ok"
    assert canonical_json(response["result"]) == expected


def test_served_warm_cache_bit_identical_to_cold(tmp_path):
    """The warm-start full-run restore must not change a single bit.  A
    second daemon on the same cache reaches it: the first would answer
    the resubmission from its completed-work store."""
    cold = cold_result([LEDGER_CLIENT])
    expected = canonical_json(cold.canonical_payload(include_marginals=True))
    responses = []
    for _ in range(2):
        with running_server(tmp_path) as server:
            with ServeClient(server.address) as client:
                responses.append(
                    client.infer([LEDGER_CLIENT], include_marginals=True)
                )
    first, second = responses
    assert first["status"] == second["status"] == "ok"
    assert not first["stats"]["warm_start"]
    assert second["stats"]["warm_start"]
    assert canonical_json(first["result"]) == expected
    assert canonical_json(second["result"]) == expected


def test_served_no_cache_bit_identical_to_cached(tmp_path):
    with running_server(tmp_path) as server:
        with ServeClient(server.address) as client:
            cached = client.infer([SCANNER_CLIENT])
            uncached = client.infer([SCANNER_CLIENT], no_cache=True)
    assert cached["status"] == uncached["status"] == "ok"
    assert canonical_json(cached["result"]) == canonical_json(
        uncached["result"]
    )
    assert uncached["stats"]["cache"] is None


def test_served_check_matches_cold_check(tmp_path):
    from repro.java.parser import parse_compilation_unit
    from repro.java.symbols import resolve_program
    from repro.corpus.iterator_api import ITERATOR_API_SOURCE
    from repro.plural.checker import check_program

    program = resolve_program(
        [
            parse_compilation_unit(source)
            for source in (ITERATOR_API_SOURCE, BROKEN_CLIENT)
        ]
    )
    expected = [warning.format() for warning in check_program(program)]
    with running_server(tmp_path) as server:
        with ServeClient(server.address) as client:
            response = client.check([BROKEN_CLIENT])
    assert response["status"] == "ok"
    assert response["result"]["warnings"] == expected
    assert response["result"]["count"] == len(expected)
    assert response["result"]["count"] > 0


def test_two_concurrent_clients_same_program(tmp_path):
    """Two simultaneous identical requests: both answers bit-identical
    to cold (whether or not the dispatcher coalesced them)."""
    expected = canonical_json(
        cold_result([LEDGER_CLIENT]).canonical_payload()
    )
    with running_server(tmp_path, batch_window=0.25) as server:
        barrier = threading.Barrier(2)
        responses = [None, None]

        def hit(index):
            with ServeClient(server.address) as client:
                barrier.wait()
                responses[index] = client.infer([LEDGER_CLIENT])

        threads = [
            threading.Thread(target=hit, args=(index,)) for index in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with ServeClient(server.address) as client:
            stats = client.stats()
    assert all(response["status"] == "ok" for response in responses)
    for response in responses:
        assert canonical_json(response["result"]) == expected
    assert stats["responses"].get("ok", 0) >= 2
    # Each request ran (coalesced or not) or, arriving after the other
    # finished, was answered from the completed-work store.
    assert stats["queue"]["dispatched"] + stats["replay"]["replays"] == 2


def test_cli_subprocess_served_bit_identical_to_cold(tmp_path):
    """The full CLI path: ``repro serve`` + ``repro client --json``."""
    source_path = tmp_path / "Ledger.java"
    source_path.write_text(LEDGER_CLIENT)
    expected = canonical_json(
        cold_result([LEDGER_CLIENT]).canonical_payload()
    )
    env = dict(os.environ, PYTHONPATH="src")
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--cache-dir",
            str(tmp_path / "cli-cache"),
            "--workers",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        boot = daemon.stdout.readline().strip()
        assert boot.startswith("serving on "), boot
        address = boot.split("serving on ", 1)[1]
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "client",
                "infer",
                str(source_path),
                "--connect",
                address,
                "--json",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        response = json.loads(result.stdout)
        assert response["status"] == "ok"
        assert canonical_json(response["result"]) == expected
    finally:
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=30) == 0


def _three_method_class(body_a, body_b, body_c):
    return """
class Trio {
    int a(Iterator it) { %s }
    int b(Iterator it) { %s }
    int c(Iterator it) { %s }
}
""" % (body_a, body_b, body_c)


def test_sequential_inprocess_runs_report_per_run_cache_stats(tmp_path):
    """Regression: ``CacheStats`` deltas must stay per-run correct across
    multiple sequential runs on one cache instance.

    ``record_invalidation`` used to *assign* ``invalidated_methods`` /
    ``dirty_cone`` instead of accumulating, so the N-th run's delta was
    "this run minus the previous run" — negative when an earlier run
    invalidated more than the current one, exactly the shape below.
    """
    from repro.corpus.iterator_api import ITERATOR_API_SOURCE

    walk = "int n = 0; while (it.hasNext()) { it.next(); n = n + 1; } return n;"
    settings = InferenceSettings()
    cache = AnalysisCache(cache_dir=str(tmp_path / "cache"))
    pipeline = AnekPipeline(settings=settings, cache=cache)

    versions = [
        _three_method_class(walk, walk, walk),
        # Second run: two method bodies change -> >= 2 invalidations.
        _three_method_class(walk, "return 2;", "return 2;"),
        # Third run: one method body changes -> >= 1 invalidation, and
        # strictly fewer than the second run's.
        _three_method_class(walk, "return 2;", "return 3;"),
    ]
    deltas = []
    for version in versions:
        result = pipeline.run_on_sources([ITERATOR_API_SOURCE, version])
        deltas.append(result.cache_stats)

    assert deltas[0].invalidated_methods == 0
    assert deltas[1].invalidated_methods >= 2
    # The old assignment bug makes this delta negative (1 - 2).
    assert deltas[2].invalidated_methods >= 1
    assert deltas[2].invalidated_methods < deltas[1].invalidated_methods
    for delta in deltas:
        assert delta.dirty_cone >= 0
    # The cumulative counter is the sum of the per-run movements.
    assert cache.stats.invalidated_methods == sum(
        delta.invalidated_methods for delta in deltas
    )


def test_sequential_runs_same_sources_identical_results(tmp_path):
    """Back-to-back in-process runs: independent stats, identical bits."""
    cache = AnalysisCache(cache_dir=str(tmp_path / "cache"))
    pipeline = AnekPipeline(settings=InferenceSettings(), cache=cache)
    from repro.corpus.iterator_api import ITERATOR_API_SOURCE

    sources = [ITERATOR_API_SOURCE, LEDGER_CLIENT]
    first = pipeline.run_on_sources(sources)
    second = pipeline.run_on_sources(sources)
    assert canonical_json(
        first.canonical_payload(include_marginals=True)
    ) == canonical_json(second.canonical_payload(include_marginals=True))
    assert not first.inference_stats.warm_start
    assert second.inference_stats.warm_start
    assert second.cache_stats.invalidated_methods == 0


def test_two_daemons_in_one_process_repeat_work_and_answers(tmp_path):
    """Two daemons, one after the other in one process, each on a fresh
    cache, answer one infer / edit / unchanged / check sequence with the
    same answers, the same work counts and the same store hits.  State
    that outlives a daemon
    or a run (a stop request left set, a memo, an import-time side
    effect) would break the repeat; a served run is never stopped."""
    from repro.core.infer import InferenceStats
    from repro.resilience.shutdown import shutdown_requested

    edited = LEDGER_CLIENT.replace("sum + it.next()", "it.next() + sum")
    assert edited != LEDGER_CLIENT
    cache_counts = (
        "parse_hits", "parse_misses", "pfg_hits", "pfg_misses",
        "solve_hits", "solve_misses", "final_hits", "final_misses",
    )

    def session(name):
        cache_dir = str(tmp_path / name)
        with running_server(tmp_path, cache_dir=cache_dir) as server:
            with ServeClient(server.address) as client:
                responses = [
                    client.infer([LEDGER_CLIENT], include_marginals=True),
                    client.infer([edited], include_marginals=True),
                    client.infer([edited], include_marginals=True),
                    client.check([edited]),
                ]
        assert not shutdown_requested()
        work = []
        for response in responses:
            assert response["status"] == "ok", response
            stats = response["stats"]
            assert not [
                record
                for record in stats["failures"]["failures"]
                if record["disposition"] == "run-interrupted"
            ]
            inference = stats.get("inference")
            cache = stats.get("cache")
            work.append(
                (
                    canonical_json(response["result"]),
                    inference
                    and {
                        name: inference[name]
                        for name in InferenceStats.WORK_COUNTERS
                    },
                    cache and {name: cache[name] for name in cache_counts},
                )
            )
        # The unchanged resubmission is a store hit in both daemons,
        # with the answer and work counts of the run it repeats.
        assert responses[2]["serve"]["replayed"] is True
        assert work[2] == work[1]
        return work

    assert session("cache-a") == session("cache-b")
