"""The paper's central robustness contrast, demonstrated directly.

§1: "A traditional analysis would generate two constraints containing
conflicting information, satisfaction of these constraints with a
Boolean constraint solver would be impossible, and no specification
would be produced.  In contrast, our approach builds logical constraints
on top of probabilities, so that conflicting facts can coexist."

These tests build the exact conflict — one variable required to be ALIVE
by one site and HASNEXT by another — in both hard and soft form, and in
the full pipeline.
"""

import pytest

from repro.core import infer_and_check
from repro.corpus.examples import figure3_sources
from repro.factorgraph import FactorGraph, predicate_factor, run_sum_product
from repro.factorgraph.exact import run_exact

STATES = ("ALIVE", "HASNEXT", "END")


def _is_alive(state):
    return state == "ALIVE"


def _is_hasnext(state):
    return state == "HASNEXT"


def build_conflict_graph(hard):
    """One state variable, two contradictory demands."""
    strength = 1.0 if hard else 0.9
    graph = FactorGraph("conflict")
    state = graph.add_variable("result.state", STATES)
    graph.add_factor(
        predicate_factor("site-guarded", [state], _is_alive, strength)
    )
    graph.add_factor(
        predicate_factor("site-unguarded", [state], _is_hasnext, strength)
    )
    return graph, state


class TestConflictUnit:
    def test_hard_constraints_are_unsatisfiable(self):
        graph, _ = build_conflict_graph(hard=True)
        # predicate_factor floors hard violations at epsilon for BP
        # stability; the joint is numerically zero everywhere.
        for value in STATES:
            assert graph.unnormalized_joint({"result.state": value}) < 1e-6

    def test_soft_constraints_produce_a_distribution(self):
        graph, state = build_conflict_graph(hard=False)
        exact = run_exact(graph)
        marginal = exact.marginals["result.state"]
        assert marginal.sum() == pytest.approx(1.0)
        # Both conflicting values keep mass; END is suppressed by both.
        alive = exact.probability(state, "ALIVE")
        hasnext = exact.probability(state, "HASNEXT")
        end = exact.probability(state, "END")
        assert alive > end and hasnext > end

    def test_evidence_voting_breaks_the_tie(self):
        # Many guarded sites vs one unguarded site: ALIVE must win — the
        # 167-vs-3 dynamic of the paper's PMD experiment.
        graph = FactorGraph("votes")
        state = graph.add_variable("result.state", STATES)
        for index in range(5):
            graph.add_factor(
                predicate_factor(
                    "guarded-%d" % index, [state], _is_alive, 0.9
                )
            )
        graph.add_factor(
            predicate_factor("unguarded", [state], _is_hasnext, 0.9)
        )
        exact = run_exact(graph)
        assert exact.probability(state, "ALIVE") > 0.9

    def test_bp_agrees_with_exact_on_the_conflict(self):
        graph, state = build_conflict_graph(hard=False)
        bp = run_sum_product(graph)
        exact = run_exact(graph)
        import numpy as np

        assert np.allclose(
            bp.marginals["result.state"],
            exact.marginals["result.state"],
            atol=1e-6,
        )


class TestConflictPipeline:
    def test_figure3_produces_specs_despite_the_bug(self):
        """The end-to-end claim: a spec IS produced, the buggy site warns,
        and the bug does not poison the wrapper's specification."""
        result = infer_and_check(figure3_sources())
        wrapper_specs = [
            spec
            for ref, spec in result.specs.items()
            if ref.qualified_name == "Row.createColIter"
        ]
        assert wrapper_specs and not wrapper_specs[0].is_empty
        result_clause = [
            c for c in wrapper_specs[0].ensures if c.target == "result"
        ][0]
        assert result_clause.state == "ALIVE"  # evidence outweighed HASNEXT
        assert result.warnings  # ...and the unguarded use is reported
