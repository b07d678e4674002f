"""Tests for max-product BP (MAP view of the spec space)."""

import numpy as np

from repro.factorgraph import FactorGraph, soft_equality
from repro.factorgraph.exact import map_assignment
from repro.factorgraph.sumproduct import run_max_product, run_sum_product
from repro.factorgraph.variables import make_prior

DOMAIN = ("u", "f", "p")


def chain_graph(head_weights):
    graph = FactorGraph()
    head = graph.add_variable(
        "x0", DOMAIN, prior=make_prior(DOMAIN, head_weights)
    )
    mid = graph.add_variable("x1", DOMAIN)
    tail = graph.add_variable("x2", DOMAIN)
    graph.add_factor(soft_equality("a", head, mid, 0.9))
    graph.add_factor(soft_equality("b", mid, tail, 0.9))
    return graph


class TestMaxProduct:
    def test_argmax_matches_exact_map_on_tree(self):
        graph = chain_graph({"u": 6, "f": 3, "p": 1})
        result = run_max_product(graph, max_iters=100)
        exact_map, _ = map_assignment(graph)
        for name, variable in graph.variables.items():
            assert result.most_likely(variable)[0] == exact_map[name]

    def test_max_marginals_are_distributions(self):
        graph = chain_graph({"u": 2, "f": 2, "p": 1})
        result = run_max_product(graph)
        for vector in result.marginals.values():
            assert np.isclose(vector.sum(), 1.0)
            assert (vector >= 0).all()

    def test_differs_from_sum_product_where_it_should(self):
        # A case where marginal argmax and MAP can diverge: two heads
        # pulling a shared tail in different directions.
        graph = FactorGraph()
        a = graph.add_variable("a", DOMAIN, prior=make_prior(DOMAIN, {"u": 9, "f": 1}))
        b = graph.add_variable("b", DOMAIN, prior=make_prior(DOMAIN, {"f": 9, "u": 1}))
        shared = graph.add_variable("s", DOMAIN)
        graph.add_factor(soft_equality("as", a, shared, 0.8))
        graph.add_factor(soft_equality("bs", b, shared, 0.8))
        max_result = run_max_product(graph, max_iters=100)
        sum_result = run_sum_product(graph, max_iters=100)
        # Both must be coherent; the MAP pick must match enumeration.
        exact_map, _ = map_assignment(graph)
        assert max_result.most_likely(shared)[0] == exact_map["s"]
        assert np.isclose(sum_result.marginals["s"].sum(), 1.0)

    def test_map_extraction_on_anek_model(self):
        """MAP and marginal extraction agree on the clean wrapper case."""
        from repro.core.heuristics import HeuristicConfig
        from repro.core.model import MethodModel
        from repro.core.pfg_builder import build_pfg
        from tests.conftest import build_program, method_ref

        program = build_program(
            "class T { @Perm(\"share\") Collection<Integer> items;"
            " Iterator<Integer> createIt() { return items.iterator(); } }"
        )
        ref = method_ref(program, "T", "createIt")
        model = MethodModel(
            program, build_pfg(program, ref), HeuristicConfig()
        ).build()
        sum_result = run_sum_product(model.graph, max_iters=50)
        max_result = run_max_product(model.graph, max_iters=50)
        result_var = model.vars.kind(model.pfg.result_node)
        assert (
            sum_result.most_likely(result_var)[0]
            == max_result.most_likely(result_var)[0]
            == "unique"
        )
