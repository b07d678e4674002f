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


def test_served_infer_reports_the_check_split(tmp_path):
    """A served ``infer`` sends its checker split as ``stats.check``,
    with the keys a served ``check`` sends.  ``infer`` checks the
    program after the inferred specs are applied, so its split is
    compared with a cold pipeline run's, not with a served check's."""
    cold = cold_result([LEDGER_CLIENT]).check
    with running_server(tmp_path) as server:
        with ServeClient(server.address) as client:
            inferred = client.infer([LEDGER_CLIENT])
            checked = client.check([LEDGER_CLIENT])
    assert inferred["status"] == checked["status"] == "ok"
    split = inferred["stats"]["check"]
    assert sorted(split) == sorted(checked["stats"]["check"])
    work = ("tier", "tier1_methods", "tier2_methods", "tier1_sites",
            "tier2_sites")
    assert {name: split[name] for name in work} == {
        name: getattr(cold, name) for name in work
    }


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
    """``CacheStats`` deltas stay per-run correct across sequential runs
    on one cache instance: each run's ``pfg_misses`` counts exactly the
    methods it lowered again, and the cumulative counter is their sum.
    A counter assigned instead of accumulated would make the third
    run's delta negative (1 - 2), exactly the shape below."""
    from repro.corpus.iterator_api import ITERATOR_API_SOURCE

    walk = "int n = 0; while (it.hasNext()) { it.next(); n = n + 1; } return n;"
    settings = InferenceSettings()
    cache = AnalysisCache(cache_dir=str(tmp_path / "cache"))
    pipeline = AnekPipeline(settings=settings, cache=cache)

    versions = [
        _three_method_class(walk, walk, walk),
        # Second run: two method bodies change.
        _three_method_class(walk, "return 2;", "return 2;"),
        # Third run: one method body changes.
        _three_method_class(walk, "return 2;", "return 3;"),
    ]
    results = [
        pipeline.run_on_sources([ITERATOR_API_SOURCE, version])
        for version in versions
    ]
    deltas = [result.cache_stats for result in results]

    cold = results[0].inference_stats.methods
    assert [delta.pfg_misses for delta in deltas] == [cold, 2, 1]
    assert cache.stats.pfg_misses == sum(
        delta.pfg_misses for delta in deltas
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
    assert second.cache_stats.misses() == 0


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
        "verdict_hits", "verdict_misses",
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
        # The edit plans only the edited method; the rest replay.
        assert work[1][2]["verdict_misses"] == 1
        assert work[1][2]["verdict_hits"] == work[0][2]["verdict_misses"] - 1
        return work

    assert session("cache-a") == session("cache-b")
