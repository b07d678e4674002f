"""Tests for the Gibbs sampler, custom heuristics, and the CLI."""

import io

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.heuristics import CustomHeuristic, HeuristicConfig
from repro.core.model import MethodModel
from repro.core.pfg_builder import build_pfg
from repro.factorgraph import FactorGraph, soft_equality
from repro.factorgraph.exact import run_exact
from repro.factorgraph.sampling import run_gibbs
from repro.factorgraph.variables import make_prior
from tests.conftest import build_program, method_ref

DOMAIN = ("a", "b", "c")


class TestGibbsSampler:
    def build_chain(self):
        graph = FactorGraph()
        head = graph.add_variable(
            "x0", DOMAIN, prior=make_prior(DOMAIN, {"a": 8, "b": 1, "c": 1})
        )
        mid = graph.add_variable("x1", DOMAIN)
        tail = graph.add_variable("x2", DOMAIN)
        graph.add_factor(soft_equality("e1", head, mid, 0.9))
        graph.add_factor(soft_equality("e2", mid, tail, 0.9))
        return graph

    def test_matches_exact_on_chain(self):
        graph = self.build_chain()
        exact = run_exact(graph)
        gibbs = run_gibbs(graph, samples=4000, burn_in=400, seed=7)
        for name in graph.variables:
            assert np.allclose(
                gibbs.marginals[name], exact.marginals[name], atol=0.05
            )

    def test_reproducible_with_seed(self):
        graph = self.build_chain()
        first = run_gibbs(graph, samples=500, burn_in=50, seed=3)
        second = run_gibbs(graph, samples=500, burn_in=50, seed=3)
        for name in graph.variables:
            assert np.array_equal(first.marginals[name], second.marginals[name])

    def test_different_seeds_differ(self):
        graph = self.build_chain()
        first = run_gibbs(graph, samples=300, burn_in=30, seed=1)
        second = run_gibbs(graph, samples=300, burn_in=30, seed=2)
        assert any(
            not np.array_equal(first.marginals[n], second.marginals[n])
            for n in graph.variables
        )

    def test_initial_assignment_respected(self):
        graph = self.build_chain()
        result = run_gibbs(
            graph,
            samples=10,
            burn_in=0,
            seed=0,
            initial={"x0": "c", "x1": "c", "x2": "c"},
        )
        assert result.samples == 10

    def test_most_likely(self):
        graph = self.build_chain()
        gibbs = run_gibbs(graph, samples=2000, burn_in=200, seed=11)
        value, prob = gibbs.most_likely(graph.get_variable("x0"))
        assert value == "a"
        assert prob > 0.5

    def test_cross_validates_bp_on_anek_model(self):
        """BP and Gibbs agree on a real per-method ANEK model."""
        from repro.factorgraph.sumproduct import run_sum_product

        program = build_program(
            "class T { @Perm(\"share\") Collection<Integer> items;"
            " Iterator<Integer> createIt() { return items.iterator(); } }"
        )
        ref = method_ref(program, "T", "createIt")
        model = MethodModel(
            program, build_pfg(program, ref), HeuristicConfig()
        ).build()
        bp = run_sum_product(model.graph, max_iters=50)
        gibbs = run_gibbs(model.graph, samples=3000, burn_in=300, seed=5)
        result_var = model.vars.kind(model.pfg.result_node)
        bp_top = bp.most_likely(result_var)[0]
        gibbs_top = gibbs.most_likely(result_var)[0]
        assert bp_top == gibbs_top == "unique"


class TestCustomHeuristics:
    def test_custom_heuristic_emitted(self):
        heuristic = CustomHeuristic(
            "H-copyOf",
            lambda pfg, node: (
                node is pfg.result_node
                and pfg.method_ref.method_decl.name.startswith("copyOf")
            ),
            lambda kind: kind == "unique",
            0.85,
        )
        config = HeuristicConfig(custom=(heuristic,))
        program = build_program(
            "class T { @Perm(\"share\") Collection<Integer> items;"
            " Iterator<Integer> copyOfIter() { return items.iterator(); } }"
        )
        ref = method_ref(program, "T", "copyOfIter")
        model = MethodModel(program, build_pfg(program, ref), config).build()
        assert model.generator.counts.get("H-copyOf", 0) == 1

    def test_custom_heuristic_influences_inference(self):
        # A deliberately contrarian heuristic: "getIter returns pure".
        heuristic = CustomHeuristic(
            "H-weak-getter",
            lambda pfg, node: (
                node is pfg.result_node
                and pfg.method_ref.method_decl.name.startswith("getIter")
            ),
            lambda kind: kind == "pure",
            0.97,
        )
        program_source = (
            "class T { Iterator<Integer> getIter(Iterator<Integer> it)"
            " { return it; } }"
        )

        def result_kind(config):
            program = build_program(program_source)
            ref = method_ref(program, "T", "getIter")
            model = MethodModel(
                program, build_pfg(program, ref), config
            ).build()
            result = model.solve()
            variable = model.vars.kind(model.pfg.result_node)
            return result.most_likely(variable)[0]

        with_custom = result_kind(HeuristicConfig(custom=(heuristic,)))
        assert with_custom == "pure"

    def test_invalid_strength_rejected(self):
        with pytest.raises(ValueError):
            CustomHeuristic("bad", lambda p, n: True, lambda k: True, 0.0)


DEMO_SOURCE = """
class Demo {
    @Perm("share")
    Collection<Integer> items;
    Iterator<Integer> createIter() { return items.iterator(); }
    int total() {
        int sum = 0;
        Iterator<Integer> it = createIter();
        while (it.hasNext()) { sum = sum + it.next(); }
        return sum;
    }
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "Demo.java"
    path.write_text(DEMO_SOURCE)
    return str(path)


class TestCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    @pytest.fixture
    def cache_flag(self, tmp_path):
        """Keeps ``repro infer`` from writing ``.anek-cache/`` into the
        working directory."""
        return ["--cache-dir", str(tmp_path / "cache")]

    def test_infer_command(self, demo_file, cache_flag):
        code, output = self.run_cli(["infer", demo_file] + cache_flag)
        assert code == 0
        assert "Demo.createIter" in output
        assert "unique(result)" in output
        assert "PLURAL warnings: 0" in output

    def test_check_command_reports_warnings(self, demo_file):
        code, output = self.run_cli(["check", demo_file])
        assert code == 1  # unannotated wrapper: warnings expected
        assert "warning(s)" in output

    def test_pfg_command(self, demo_file):
        code, output = self.run_cli(["pfg", demo_file, "Demo.total"])
        assert code == 0
        assert "PFG for Demo.total" in output

    def test_pfg_dot_output(self, demo_file):
        code, output = self.run_cli(["pfg", demo_file, "Demo.total", "--dot"])
        assert code == 0
        assert output.startswith("digraph")

    def test_pfg_unknown_method(self, demo_file):
        code, _ = self.run_cli(["pfg", demo_file, "Demo.missing"])
        assert code == 3  # usage error (2 = completed with quarantines)

    def test_figure_command(self):
        code, output = self.run_cli(["figure", "4"])
        assert code == 0
        assert "unique" in output

    def test_infer_emit_source(self, demo_file, cache_flag):
        code, output = self.run_cli(
            ["infer", demo_file, "--emit-source"] + cache_flag
        )
        assert code == 0
        assert '@Perm(ensures="unique(result)")' in output

    def test_threshold_flag(self, demo_file, cache_flag):
        code, output = self.run_cli(
            ["infer", demo_file, "--threshold", "0.9"] + cache_flag
        )
        assert code == 0
