"""Equivalence and reuse tests for the compiled flat-array BP engine.

The compiled engine (``repro.factorgraph.compiled``) promises marginals
*identical* to the loopy reference engine — same association order, same
normalization fallbacks, same damping blend — so these tests assert
bit-identity (equal sweep counts, convergence flags and deltas, and
``np.array_equal`` marginals) over seeded random factor graphs spanning
arities up to ``MAX_DIRECT_ARITY``, domains on both sides of numpy's
8-element pairwise-summation switch, degenerate tables that reach the
uniform fallback, both semirings, and damping on and off.  The
incremental layer (``set_prior``/``set_table``, ``ModelCache``
fingerprint skipping) is checked against from-scratch recompilation and
against the worklist's own stats.
"""

import numpy as np
import pytest

from repro.core.heuristics import HeuristicConfig
from repro.core.infer import AnekInference, InferenceSettings
from repro.core.model import MethodModel, ModelCache
from repro.core.pfg_builder import build_pfg
from repro.core.summaries import SummaryStore, method_input_fingerprint
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.factorgraph import FactorGraph, run_sum_product
from repro.factorgraph.compile import MAX_DIRECT_ARITY
from repro.factorgraph.compiled import CompiledGraph, run_compiled
from repro.factorgraph.exact import run_exact
from repro.factorgraph.factors import Factor
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.permissions.spec import SpecEnvironment

TOLERANCE = 1e-9

#: The 9-state domain puts a graph past numpy's 8-element switch from
#: sequential to pairwise summation (DESIGN §16).
DOMAINS = (
    ("a", "b"),
    ("x", "y", "z"),
    ("p", "q", "r", "s"),
    tuple("s%d" % index for index in range(9)),
)

#: Table kinds a random factor draws: mostly well-conditioned, plus
#: degenerate ones whose messages hit the uniform fallback (zero or
#: overflowing totals) or sit near the top of the float range.
TABLE_KINDS = ("plain",) * 6 + ("zeros", "sparse", "huge", "overflow")


def random_table(rng, shape, degenerate):
    table = rng.random(shape) + 1e-3
    if not degenerate:
        return table
    kind = TABLE_KINDS[rng.integers(0, len(TABLE_KINDS))]
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "sparse":
        return np.where(rng.random(shape) < 0.8, 0.0, table)
    if kind == "huge":
        return table * 1e300
    if kind == "overflow":
        return table * 1e308
    return table


def random_graph(rng, variable_count=8, factor_count=10,
                 max_arity=MAX_DIRECT_ARITY, degenerate=False):
    """A random factor graph with mixed domain sizes and arities.

    Leaves some variables factor-free (their marginal must equal their
    prior) and occasionally attaches unary factors, covering every
    structural case the compiled lowering distinguishes; ``degenerate``
    mixes in the degenerate :data:`TABLE_KINDS`.
    """
    graph = FactorGraph(name="random")
    variables = []
    for index in range(variable_count):
        domain = DOMAINS[rng.integers(0, len(DOMAINS))]
        prior = rng.random(len(domain)) + 0.05
        variables.append(
            graph.add_variable("v%d" % index, domain, prior=prior)
        )
    for index in range(factor_count):
        arity = int(rng.integers(1, max_arity + 1))
        chosen = rng.choice(len(variables), size=arity, replace=False)
        members = [variables[int(position)] for position in chosen]
        shape = tuple(var.cardinality for var in members)
        table = random_table(rng, shape, degenerate)
        graph.add_factor(Factor("f%d" % index, members, table))
    return graph


def assert_results_match(compiled, loopy):
    """Bit-identity: same sweeps, convergence, delta and marginals."""
    assert compiled.iterations == loopy.iterations
    assert compiled.converged == loopy.converged
    assert compiled.max_delta == loopy.max_delta
    assert set(compiled.marginals) == set(loopy.marginals)
    for name, reference in loopy.marginals.items():
        assert np.array_equal(compiled.marginals[name], reference), name


class TestEngineEquivalence:
    @pytest.mark.parametrize("semiring", ["sum", "max"])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_random_graphs_match_loopy(self, semiring, damping):
        rng = np.random.default_rng(20260805)
        widths = set()
        for trial in range(12):
            graph = random_graph(
                rng,
                variable_count=int(rng.integers(4, 12)),
                factor_count=int(rng.integers(3, 14)),
                degenerate=True,
            )
            # The overflow tables overflow sums by design.
            with np.errstate(over="ignore"):
                loopy = run_sum_product(
                    graph, max_iters=40, damping=damping, semiring=semiring
                )
                compiled = run_compiled(
                    graph, max_iters=40, damping=damping, semiring=semiring
                )
            assert_results_match(compiled, loopy)
            widths.add(CompiledGraph(graph).width >= 8)
        # Both row-total paths ran: padded (D < 8) and exact (D >= 8).
        assert widths == {False, True}

    def test_both_engines_match_exact_on_trees(self):
        rng = np.random.default_rng(7)
        for trial in range(6):
            # A star-shaped (tree) graph: BP is exact here.
            graph = FactorGraph(name="tree")
            hub = graph.add_variable("hub", DOMAINS[1], prior=rng.random(3) + 0.1)
            for leaf_index in range(4):
                domain = DOMAINS[leaf_index % 2]
                leaf = graph.add_variable(
                    "leaf%d" % leaf_index, domain, prior=rng.random(len(domain)) + 0.1
                )
                table = rng.random((hub.cardinality, leaf.cardinality)) + 0.05
                graph.add_factor(
                    Factor("edge%d" % leaf_index, [hub, leaf], table)
                )
            exact = run_exact(graph)
            loopy = run_sum_product(graph, max_iters=60, tolerance=1e-10)
            compiled = run_compiled(graph, max_iters=60, tolerance=1e-10)
            assert_results_match(compiled, loopy)
            for name, reference in exact.marginals.items():
                assert float(
                    np.abs(compiled.marginals[name] - reference).max()
                ) < 1e-6

    def test_factor_free_variables_keep_their_prior(self):
        graph = FactorGraph(name="lonely")
        graph.add_variable("free", ("u", "v"), prior=[0.7, 0.3])
        a = graph.add_variable("a", ("u", "v"))
        b = graph.add_variable("b", ("u", "v"))
        graph.add_factor(Factor("ab", [a, b], np.ones((2, 2))))
        result = run_compiled(graph)
        assert np.allclose(result.marginals["free"], [0.7, 0.3])

    def test_duplicate_variable_factor_rejected(self):
        graph = FactorGraph(name="dup")
        x = graph.add_variable("x", ("u", "v"))
        graph.add_factor(Factor("xx", [x, x], np.ones((2, 2))))
        with pytest.raises(ValueError, match="repeats variable"):
            CompiledGraph(graph)


class TestIncrementalUpdates:
    def test_set_prior_matches_fresh_compile(self):
        rng = np.random.default_rng(99)
        graph = random_graph(rng)
        kernel = CompiledGraph(graph)
        kernel.run()
        # Mutate a prior both in the graph and via the kernel slot.
        name = next(iter(graph.variables))
        variable = graph.variables[name]
        new_prior = rng.random(variable.cardinality) + 0.1
        new_prior = new_prior / new_prior.sum()
        variable.prior = new_prior
        kernel.set_prior(name, new_prior)
        incremental = kernel.run()
        fresh = CompiledGraph(graph).run()
        assert_results_match(incremental, fresh)

    def test_set_table_matches_fresh_compile(self):
        rng = np.random.default_rng(123)
        graph = random_graph(rng)
        kernel = CompiledGraph(graph)
        kernel.run()
        index = int(rng.integers(0, len(graph.factors)))
        factor = graph.factors[index]
        table = rng.random(factor.table.shape) + 1e-3
        factor.table = table
        kernel.set_table(index, table)
        incremental = kernel.run()
        fresh = CompiledGraph(graph).run()
        assert_results_match(incremental, fresh)

    def test_errstate_is_restored(self):
        before = np.geterr()
        graph = random_graph(np.random.default_rng(5))
        run_sum_product(graph, max_iters=5)
        assert np.geterr() == before
        run_compiled(graph, max_iters=5)
        assert np.geterr() == before


QUICKSTART_CLIENT = """
class Ledger {
    @Perm("share")
    Collection<Integer> amounts;

    Ledger() {
        this.amounts = new ArrayList<Integer>();
    }

    Iterator<Integer> createAmountIter() {
        return amounts.iterator();
    }

    int total() {
        int sum = 0;
        Iterator<Integer> it = createAmountIter();
        while (it.hasNext()) {
            sum = sum + it.next();
        }
        return sum;
    }
}
"""


def _quickstart_program():
    return resolve_program(
        [
            parse_compilation_unit(source)
            for source in (ITERATOR_API_SOURCE, QUICKSTART_CLIENT)
        ]
    )


class TestModelReuse:
    def test_revisits_do_zero_constraint_regeneration(self):
        """A reused model never re-runs constraint generation: every
        method builds exactly once, and the factor/constraint totals
        equal the one-build-per-method sum despite many revisits."""
        program = _quickstart_program()
        inference = AnekInference(program)
        inference.run()
        stats = inference.stats
        assert stats.builds == stats.methods
        assert stats.solves > stats.builds  # revisits happened...
        assert stats.reuses + stats.skips == stats.solves - stats.builds
        assert stats.skips > 0  # ...and some were fingerprint-skipped
        # One-build-per-method factor total, measured independently.
        expected_factors = 0
        spec_env = SpecEnvironment(program)
        for method_ref in program.methods_with_bodies():
            model = MethodModel(
                program,
                build_pfg(program, method_ref),
                inference.config,
                spec_env=spec_env,
                summary_store=SummaryStore(),
            ).build()
            expected_factors += model.graph.factor_count
        assert stats.factors == expected_factors

    def test_model_cache_skips_on_unchanged_fingerprint(self):
        program = _quickstart_program()
        config = HeuristicConfig()
        spec_env = SpecEnvironment(program)
        store = SummaryStore()
        cache = ModelCache(program, config, spec_env)
        settings = InferenceSettings()
        method_ref = next(iter(program.methods_with_bodies()))
        pfg = build_pfg(program, method_ref)
        first = cache.solve(method_ref, pfg, store, settings)
        assert first.built and not first.skipped
        second = cache.solve(method_ref, pfg, store, settings)
        assert second.skipped and not second.built
        # The skip hands back the first visit's outcome, not a copy.
        assert second.boundary is first.boundary
        assert second.deposits is first.deposits

    def test_fingerprint_tracks_evidence_and_summaries(self):
        program = _quickstart_program()
        spec_env = SpecEnvironment(program)
        methods = list(program.methods_with_bodies())
        method_ref = methods[0]
        pfg = build_pfg(program, method_ref)
        store = SummaryStore()
        base = method_input_fingerprint(store, spec_env, pfg)
        # Fingerprinting is read-only: it creates no summary entry.
        assert method_ref not in store._summaries
        assert base == method_input_fingerprint(store, spec_env, pfg)
        # Depositing evidence on a boundary node changes the fingerprint.
        if pfg.param_pre:
            target = next(iter(pfg.param_pre))
            from repro.core.summaries import TargetMarginal

            store.deposit_evidence(
                method_ref,
                "pre",
                target,
                ("caller", 0),
                TargetMarginal(kind={"full": 0.9, "none": 0.1}),
            )
            assert method_input_fingerprint(store, spec_env, pfg) != base

    @pytest.mark.parametrize("engine", ["loopy", "compiled"])
    def test_engines_agree_on_inferred_marginals(self, engine):
        program = _quickstart_program()
        reference = AnekInference(
            program, settings=InferenceSettings(engine="loopy")
        )
        ref_marginals = reference.run()
        program2 = _quickstart_program()
        subject = AnekInference(
            program2, settings=InferenceSettings(engine=engine)
        )
        subject_marginals = subject.run()
        ref_by_name = {
            ref.qualified_name: boundary
            for ref, boundary in ref_marginals.items()
        }
        for ref, boundary in subject_marginals.items():
            expected = ref_by_name[ref.qualified_name]
            for slot_target, marginal in boundary.items():
                other = expected[slot_target]
                for mine, theirs in (
                    (marginal.kind, other.kind),
                    (marginal.state, other.state),
                ):
                    if mine is None and theirs is None:
                        continue
                    for key in theirs:
                        assert abs(mine[key] - theirs[key]) <= TOLERANCE

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            InferenceSettings(engine="quantum")


class TestLoopyFallback:
    def test_compiled_run_failure_falls_back_to_loopy(self, monkeypatch):
        """A kernel that raises mid-solve costs a warning, not the solve:
        the model answers with the loopy engine's result, bit for bit."""
        program = _quickstart_program()
        spec_env = SpecEnvironment(program)
        method_ref = next(
            ref
            for ref in program.methods_with_bodies()
            if ref.method_decl.name == "total"
        )

        def build_model():
            return MethodModel(
                program,
                build_pfg(program, method_ref),
                HeuristicConfig(),
                spec_env=spec_env,
                summary_store=SummaryStore(),
            ).build()

        expected = build_model().solve(engine="loopy")

        def failing_run(self, **_kwargs):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(CompiledGraph, "run", failing_run)
        with pytest.warns(RuntimeWarning, match="compiled engine failed"):
            result = build_model().solve(engine="compiled")
        assert_results_match(result, expected)
