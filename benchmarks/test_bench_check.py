"""Tiered-checker bench — the bit-vector fast path's speedup claim.

The guarded-iterator-heavy shape is the paper's *inlined* configuration
(Table 3): one method, N sequential guarded-iterator loops, so the
number of protocol call sites grows linearly while the full
permission checker's per-site cost grows with the live context it
drags through every transfer.  The bit-vector tier compiles
the method once and sweeps all sites as flat numpy arrays, so its
per-site cost stays flat — the per-callsite speedup therefore *grows*
with N.

Asserted here:

* **bit-identity** — the tiered run's warning list equals the full
  checker's exactly (the bar everything else rests on);
* **tier-1 coverage** — at least 90% of the call sites are proven by
  the vectorized sweep;
* **per-callsite speedup** — at least 10x in full mode
  (``REPRO_FULL_SCALE=1``, N=1024); quick mode (the default, what the
  CI ``check-smoke`` job runs) uses N=256 and a floor that only guards
  against regressions to sub-tier-1 performance.

Each tier runs in its own forked child so parser caches and checker
state never contaminate the other's timing.  Results go to
``BENCH_check.json`` at the repo root.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

FULL = os.environ.get("REPRO_FULL_SCALE", "") == "1"

N_LOOPS = 1024 if FULL else 256
MIN_SPEEDUP = 10.0 if FULL else 1.3
MIN_COVERAGE = 0.9

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_check.json"


def _child(conn, n_loops, tier):
    """One measured checker run over a pipe, in a fresh process."""
    from repro.corpus.generator import generate_inlined_program
    from repro.corpus.iterator_api import ITERATOR_API_SOURCE
    from repro.java.parser import parse_compilation_unit
    from repro.java.symbols import resolve_program
    from repro.plural.checker import run_check

    program = resolve_program(
        [
            parse_compilation_unit(ITERATOR_API_SOURCE),
            parse_compilation_unit(generate_inlined_program(n_loops)),
        ]
    )
    start = time.perf_counter()
    run = run_check(program, tier=tier)
    wall_seconds = time.perf_counter() - start
    conn.send(
        {
            "tier": tier,
            "wall_seconds": wall_seconds,
            "tier1_seconds": run.tier1_seconds,
            "tier2_seconds": run.tier2_seconds,
            "tier1_sites": run.tier1_sites,
            "tier2_sites": run.tier2_sites,
            "site_coverage": run.site_coverage,
            "residue_reasons": run.residue_reasons,
            "warnings": [warning.format() for warning in run.warnings],
        }
    )
    conn.close()


def _measure(n_loops, tier):
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(child_conn, n_loops, tier))
    proc.start()
    child_conn.close()
    payload = parent_conn.recv()
    proc.join()
    assert proc.exitcode == 0
    return payload


def test_bench_tiered_check(benchmark):
    def run():
        return _measure(N_LOOPS, "full"), _measure(N_LOOPS, "auto")

    full, tiered = benchmark.pedantic(run, rounds=1, iterations=1)

    # The hard bar first: the fast path changes nothing observable.
    assert tiered["warnings"] == full["warnings"]

    sites = tiered["tier1_sites"] + tiered["tier2_sites"]
    assert sites > 0
    speedup = full["wall_seconds"] / max(tiered["wall_seconds"], 1e-9)
    per_site_full_us = 1e6 * full["wall_seconds"] / sites
    per_site_tiered_us = 1e6 * tiered["wall_seconds"] / sites
    print()
    print(
        "  %d guarded loops, %d call sites: full %6.2f s (%7.1f us/site),"
        " tiered %6.2f s (%7.1f us/site) -> %.1fx, coverage %.3f"
        % (
            N_LOOPS,
            sites,
            full["wall_seconds"],
            per_site_full_us,
            tiered["wall_seconds"],
            per_site_tiered_us,
            speedup,
            tiered["site_coverage"],
        )
    )

    assert tiered["site_coverage"] >= MIN_COVERAGE
    assert speedup >= MIN_SPEEDUP

    report = {
        "bench": "check",
        "mode": "full" if FULL else "quick",
        "program": "inlined guarded-iterator (Table 3 configuration)",
        "guarded_loops": N_LOOPS,
        "call_sites": sites,
        "full_seconds": round(full["wall_seconds"], 3),
        "tiered_seconds": round(tiered["wall_seconds"], 3),
        "tier1_seconds": round(tiered["tier1_seconds"], 3),
        "tier2_seconds": round(tiered["tier2_seconds"], 3),
        "per_callsite_full_us": round(per_site_full_us, 2),
        "per_callsite_tiered_us": round(per_site_tiered_us, 2),
        "per_callsite_speedup": round(speedup, 2),
        "min_speedup_asserted": MIN_SPEEDUP,
        "tier1_site_coverage": round(tiered["site_coverage"], 4),
        "min_coverage_asserted": MIN_COVERAGE,
        "residue_reasons": tiered["residue_reasons"],
        "warnings_bit_identical": True,
        "warning_count": len(full["warnings"]),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
