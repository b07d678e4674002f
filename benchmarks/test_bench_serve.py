"""Serving bench — the analysis-as-a-service latency/throughput claim.

Compares four ways of answering the same inference request:

* **cold CLI** — ``python -m repro infer`` as a fresh subprocess with no
  cache: interpreter start, imports, parse, solve, all per request (the
  pre-daemon workflow);
* **warm served** — each request goes to a fresh daemon on one hot
  cache directory, so it replays every visit from the content-addressed
  store and builds no model (a daemon answers work it finished itself
  from its completed-work store instead);
* **replay hit** — the same request resubmitted to one daemon, answered
  from its completed-work store;
* **concurrent served** — 4 client threads send each round's new
  sources together, which exercises queueing and cross-request
  coalescing.  A round's sources differ from the last only by a
  trailing comment, so every round has the same answer.

The acceptance bar is warm served p50 latency >= 3x faster than the
cold CLI, at >= 4 concurrent clients, with every served response
bit-identical.  Results go to ``BENCH_serve.json`` at the repo root
(p50/p99 latency, throughput).  The default sends few requests over a
small program; ``REPRO_FULL_SCALE=1`` sends more over a larger one.  The
client count is the same in both.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from benchmarks.conftest import FULL_SCALE
from repro.corpus.generator import generate_branchy_program
from repro.serve import AnekServer, ServeClient

METHOD_COUNT = 16 if FULL_SCALE else 8
CLIENTS = 4
REQUESTS_PER_CLIENT = 12 if FULL_SCALE else 4
COLD_RUNS = 3 if FULL_SCALE else 1
REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_serve.json"


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _cold_cli_seconds(source_path):
    """One full cold CLI run: subprocess + imports + uncached analysis."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "infer",
            str(source_path),
            "--no-cache",
        ],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
    )
    seconds = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return seconds


def test_bench_serve(benchmark):
    program = generate_branchy_program(METHOD_COUNT)
    workdir = Path(tempfile.mkdtemp(prefix="anek-bench-serve-"))
    source_path = workdir / "Branchy.java"
    source_path.write_text(program)

    def run():
        cold_cli = min(
            _cold_cli_seconds(source_path) for _ in range(COLD_RUNS)
        )

        def daemon():
            return AnekServer(
                port=0, cache_dir=str(workdir / "cache"), workers=CLIENTS
            ).start()

        def stop(server):
            server.initiate_shutdown()
            server.wait()

        def same_answer(response):
            return response["status"] == "ok" and (
                json.dumps(response["result"], sort_keys=True) == golden
            )

        server = daemon()
        try:
            with ServeClient(server.address) as client:
                prime = client.infer([program])
                assert prime["status"] == "ok"
                golden = json.dumps(prime["result"], sort_keys=True)

                # Replay hits: the same request resubmitted, answered
                # from the completed-work store — no batch planning, no
                # solve, not even a cache read.
                replay = []
                for _ in range(REQUESTS_PER_CLIENT):
                    start = time.perf_counter()
                    response = client.infer([program])
                    replay.append(time.perf_counter() - start)
                    assert response["serve"]["replayed"]
                    assert same_answer(response)
        finally:
            stop(server)

        # Warm solo latency: one request per fresh daemon, hot cache.
        warm_solo = []
        for _ in range(REQUESTS_PER_CLIENT):
            server = daemon()
            try:
                with ServeClient(server.address) as client:
                    start = time.perf_counter()
                    response = client.infer([program])
                    warm_solo.append(time.perf_counter() - start)
            finally:
                stop(server)
            inference = response["stats"]["inference"]
            assert inference["builds"] == 0 and inference["replays"] > 0
            assert same_answer(response)

        # Concurrent load: CLIENTS threads, one connection each, every
        # round's new sources sent by all of them at once.
        server = daemon()
        try:
            latencies = []
            mismatches = []
            lock = threading.Lock()
            barrier = threading.Barrier(CLIENTS)
            wall_start = time.perf_counter()

            def hammer():
                with ServeClient(server.address) as client:
                    for round_index in range(REQUESTS_PER_CLIENT):
                        sources = [program + "// round %d\n" % round_index]
                        barrier.wait()
                        start = time.perf_counter()
                        response = client.infer(sources)
                        elapsed = time.perf_counter() - start
                        with lock:
                            latencies.append(elapsed)
                            if not same_answer(response):
                                mismatches.append(response["status"])

            threads = [
                threading.Thread(target=hammer) for _ in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - wall_start
            assert not mismatches, mismatches

            with ServeClient(server.address) as client:
                stats = client.stats()
        finally:
            stop(server)
        return cold_cli, warm_solo, replay, latencies, wall, stats

    try:
        (
            cold_cli,
            warm_solo,
            replay,
            latencies,
            wall,
            stats,
        ) = benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    total = CLIENTS * REQUESTS_PER_CLIENT
    solo_p50 = _percentile(warm_solo, 0.5)
    report = {
        "program": {"methods": METHOD_COUNT, "quick": not FULL_SCALE},
        "cold_cli_seconds": cold_cli,
        "warm_solo": {
            "p50_seconds": solo_p50,
            "p99_seconds": _percentile(warm_solo, 0.99),
            "requests": len(warm_solo),
        },
        "replay_hit": {
            "p50_seconds": _percentile(replay, 0.5),
            "p99_seconds": _percentile(replay, 0.99),
            "requests": len(replay),
        },
        "concurrent": {
            "clients": CLIENTS,
            "requests": total,
            "p50_seconds": _percentile(latencies, 0.5),
            "p99_seconds": _percentile(latencies, 0.99),
            "throughput_rps": total / max(wall, 1e-9),
            "wall_seconds": wall,
            "coalesced": stats["coalesced"],
            "replays": stats["replay"]["replays"],
            "waves": stats["waves"],
        },
        "warm_served_speedup_vs_cold_cli": cold_cli / max(solo_p50, 1e-9),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print("  cold CLI          %.3fs per request" % cold_cli)
    print(
        "  warm served solo  p50 %.4fs  p99 %.4fs  (%.1fx vs cold CLI)"
        % (
            solo_p50,
            report["warm_solo"]["p99_seconds"],
            report["warm_served_speedup_vs_cold_cli"],
        )
    )
    print(
        "  replay hit        p50 %.4fs  p99 %.4fs"
        % (
            report["replay_hit"]["p50_seconds"],
            report["replay_hit"]["p99_seconds"],
        )
    )
    print(
        "  %d clients         p50 %.4fs  p99 %.4fs  %.1f req/s "
        "(%d coalesced in %d waves, %d store hits)"
        % (
            CLIENTS,
            report["concurrent"]["p50_seconds"],
            report["concurrent"]["p99_seconds"],
            report["concurrent"]["throughput_rps"],
            stats["coalesced"],
            stats["waves"],
            stats["replay"]["replays"],
        )
    )
    # The acceptance bar: a warm served request beats a cold CLI run by
    # at least 3x (in practice it is orders of magnitude).
    assert cold_cli >= 3.0 * solo_p50, report
