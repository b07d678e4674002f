"""BP-kernel bench — the compiled engine's speedup claim.

Two measurements over the largest generated benchmark program (the
branchy call-graph corpus):

* **kernel micro** — per-method factor graphs solved by the loopy
  reference engine vs the compiled flat-array kernel, with the one-time
  lowering (build) cost split out from the sweep cost;
* **end to end** — full ANEK-INFER on the loopy reference engine vs
  the compiled kernel, both reusing each method's model across visits.
  The compiled run must be at least 3x faster while producing the same
  number of annotations.

Results are written to ``BENCH_bp.json`` at the repo root.  The
default program is small; ``REPRO_FULL_SCALE=1`` runs the larger one.
"""

import json
import time
from pathlib import Path

from benchmarks.conftest import FULL_SCALE
from repro.core.extract import count_nonempty
from repro.core.heuristics import HeuristicConfig
from repro.core.infer import (
    BP_DAMPING,
    BP_ITERS,
    BP_TOLERANCE,
    AnekInference,
    InferenceSettings,
)
from repro.core.model import MethodModel
from repro.core.pfg_builder import build_pfg
from repro.corpus.generator import generate_branchy_program
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.factorgraph.compiled import CompiledGraph
from repro.factorgraph.sumproduct import run_sum_product
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.permissions.spec import SpecEnvironment

METHOD_COUNT = 24 if FULL_SCALE else 8
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_bp.json"


def _build_program():
    return resolve_program(
        [
            parse_compilation_unit(source)
            for source in (
                ITERATOR_API_SOURCE,
                generate_branchy_program(METHOD_COUNT),
            )
        ]
    )


def _method_graphs(program):
    """One built factor graph per method (the kernel's unit of work)."""
    config = HeuristicConfig()
    spec_env = SpecEnvironment(program)
    graphs = []
    for method_ref in program.methods_with_bodies():
        model = MethodModel(
            program,
            build_pfg(program, method_ref),
            config,
            spec_env=spec_env,
        ).build()
        graphs.append(model.graph)
    return graphs


def _bench_kernel(program):
    graphs = _method_graphs(program)
    bp = dict(max_iters=BP_ITERS, damping=BP_DAMPING, tolerance=BP_TOLERANCE)

    start = time.perf_counter()
    loopy = [run_sum_product(graph, **bp) for graph in graphs]
    loopy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    kernels = [CompiledGraph(graph) for graph in graphs]
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    compiled = [kernel.run(**bp) for kernel in kernels]
    sweep_seconds = time.perf_counter() - start

    # The two engines must agree, bit for bit, before their times are
    # comparable.
    for left, right in zip(loopy, compiled):
        assert left.iterations == right.iterations
        for name in left.marginals:
            assert abs(left.marginals[name] - right.marginals[name]).max() == 0

    return {
        "graphs": len(graphs),
        "factors": sum(graph.factor_count for graph in graphs),
        "loopy_seconds": loopy_seconds,
        "build_seconds": build_seconds,
        "sweep_seconds": sweep_seconds,
        "sweep_speedup": loopy_seconds / max(sweep_seconds, 1e-9),
        "amortized_speedup": loopy_seconds
        / max(build_seconds + sweep_seconds, 1e-9),
    }


def _run_infer(engine):
    program = _build_program()
    inference = AnekInference(
        program, settings=InferenceSettings(engine=engine)
    )
    start = time.perf_counter()
    marginals = inference.run()
    seconds = time.perf_counter() - start
    specs = inference.extract_specs(marginals)
    stats = inference.stats
    return {
        "seconds": seconds,
        "annotations": count_nonempty(specs),
        "solves": stats.solves,
        "builds": stats.builds,
        "reuses": stats.reuses,
        "skips": stats.skips,
        "build_seconds": stats.build_seconds,
        "solve_seconds": stats.solve_seconds,
    }


def test_bench_bp_kernel_and_infer(benchmark):
    def run():
        program = _build_program()
        kernel = _bench_kernel(program)
        loopy = _run_infer("loopy")
        compiled = _run_infer("compiled")
        return kernel, loopy, compiled

    kernel, loopy, compiled = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = loopy["seconds"] / max(compiled["seconds"], 1e-9)
    report = {
        "program": {"methods": METHOD_COUNT, "quick": not FULL_SCALE},
        "kernel": kernel,
        "end_to_end": {
            "loopy_seconds": loopy["seconds"],
            "compiled_seconds": compiled["seconds"],
            "speedup": speedup,
            "loopy": loopy,
            "compiled": compiled,
        },
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(
        "  kernel    %d graphs: loopy %.3fs, build %.3fs + sweep %.3fs "
        "(sweep %.1fx, amortized %.1fx)"
        % (
            kernel["graphs"],
            kernel["loopy_seconds"],
            kernel["build_seconds"],
            kernel["sweep_seconds"],
            kernel["sweep_speedup"],
            kernel["amortized_speedup"],
        )
    )
    print(
        "  infer     loopy %.2fs -> compiled %.2fs (%.1fx; "
        "%d builds, %d reuses, %d skips)"
        % (
            loopy["seconds"],
            compiled["seconds"],
            speedup,
            compiled["builds"],
            compiled["reuses"],
            compiled["skips"],
        )
    )
    print("  wrote     %s" % RESULT_PATH)
    # Equal output quality: the speedup is not bought with lost specs.
    assert compiled["annotations"] == loopy["annotations"]
    # Bit-identical engines walk the same trajectory.
    for counter in ("solves", "builds", "reuses", "skips"):
        assert compiled[counter] == loopy[counter], counter
    # A reused model regenerates nothing: one build per method, ever.
    assert compiled["builds"] < compiled["solves"]
    # The acceptance bar: >= 3x end-to-end on the largest generated program.
    assert speedup >= 3.0, "end-to-end speedup %.2fx below 3x" % speedup
