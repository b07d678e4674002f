"""Tests for ANEK-INFER, summaries, extraction, and the applier."""

import random

import numpy as np

from repro.core import AnekInference, InferenceSettings
from repro.core.applier import apply_specs, render_annotated_sources
from repro.core.extract import (
    clause_from_marginal,
    count_clauses,
    count_nonempty,
    pick_kind,
)
from repro.core.summaries import (
    MethodSummary,
    SummaryStore,
    TargetMarginal,
    clip_marginal,
    satisfaction_evidence,
)
from repro.permissions.spec import spec_of_method
from tests.conftest import build_program, method_ref


def infer(program, **settings_kwargs):
    settings = InferenceSettings(**settings_kwargs)
    inference = AnekInference(program, settings=settings)
    results = inference.run()
    specs = inference.extract_specs(results)
    return inference, {
        ref.qualified_name: spec for ref, spec in specs.items()
    }


class TestSummaries:
    def test_update_reports_change(self):
        store = SummaryStore(change_threshold=0.01)
        marginal = TargetMarginal(kind={"full": 0.8, "none": 0.2})
        assert store.update("m", "pre", "this", marginal)
        assert not store.update("m", "pre", "this", marginal)

    def test_small_changes_below_threshold_ignored(self):
        store = SummaryStore(change_threshold=0.05)
        store.update("m", "pre", "x", TargetMarginal(kind={"full": 0.80}))
        assert not store.update(
            "m", "pre", "x", TargetMarginal(kind={"full": 0.81})
        )

    def test_evidence_keyed_by_site(self):
        store = SummaryStore()
        marginal = TargetMarginal(kind={"pure": 1.0})
        store.deposit_evidence("callee", "pre", "it", ("caller", 0), marginal)
        store.deposit_evidence("callee", "pre", "it", ("caller", 1), marginal)
        assert len(store.evidence_for("callee", "pre", "it")) == 2
        assert store.evidence_count() == 2

    def test_clip_marginal_bounds_certainty(self):
        clipped = clip_marginal(
            TargetMarginal(kind={"full": 0.999, "none": 0.001}), 0.85
        )
        assert max(clipped.kind.values()) <= 0.86

    def test_clip_marginal_is_numpy_clip_bit_for_bit(self):
        """The clip equals numpy's clip-then-normalize formula in every
        bit, on 1 to 20 entries (state domains reach 61): numpy sums
        below 8 entries left to right and pairwise from 8 on."""

        def numpy_clip(dist, confidence):
            values = np.array(list(dist.values()))
            values = np.clip(values, 1.0 - confidence, confidence)
            values = values / values.sum()
            return {key: float(v) for key, v in zip(dist.keys(), values)}

        def bits(dist):
            return [(key, type(v), v.hex()) for key, v in dist.items()]

        rng = random.Random(29)
        for size in range(1, 21):
            for case in range(400):
                confidence = rng.uniform(0.8, 0.99)
                raw = [
                    rng.random() ** rng.choice((1, 4, 12))
                    for _ in range(size)
                ]
                if case % 10 == 0:
                    # Exact bounds and zeros: a tie takes the bound.
                    raw[rng.randrange(size)] = rng.choice(
                        (0.0, 1.0 - confidence, confidence)
                    )
                total = sum(raw) or 1.0
                kind = {"v%d" % i: v / total for i, v in enumerate(raw)}
                state = {"s%d" % i: value for i, value in enumerate(raw)}
                clipped = clip_marginal(
                    TargetMarginal(kind=kind, state=state), confidence
                )
                assert bits(clipped.kind) == bits(numpy_clip(kind, confidence))
                assert bits(clipped.state) == bits(
                    numpy_clip(state, confidence)
                )
        assert clip_marginal(TargetMarginal(), 0.85).kind is None

    def test_satisfaction_evidence_never_vetoes_none(self):
        supply = TargetMarginal(kind={"unique": 1.0})
        evidence = satisfaction_evidence(supply)
        assert evidence.kind["none"] >= max(
            value for key, value in evidence.kind.items() if key != "none"
        ) * 0.99

    def test_satisfaction_evidence_vetoes_unmeetable_requirement(self):
        supply = TargetMarginal(kind={"pure": 1.0})
        evidence = satisfaction_evidence(supply)
        assert evidence.kind["unique"] < evidence.kind["pure"]

    def test_summary_slots(self):
        summary = MethodSummary("m")
        marginal = TargetMarginal(kind={"full": 1.0})
        summary.set("result", "result", marginal)
        assert summary.get("result", "result") is marginal


class TestExtraction:
    def test_pick_kind_gates_on_none_mass(self):
        assert pick_kind({"full": 0.5, "none": 0.5}) is None

    def test_pick_kind_weakest_plausible(self):
        dist = {
            "unique": 0.19, "full": 0.19, "share": 0.19,
            "immutable": 0.19, "pure": 0.19, "none": 0.05,
        }
        assert pick_kind(dist) == "pure"

    def test_pick_kind_concentrated_demand(self):
        dist = {"unique": 0.45, "full": 0.45, "share": 0.02,
                "immutable": 0.02, "pure": 0.02, "none": 0.04}
        assert pick_kind(dist) == "full"

    def test_clause_includes_state_above_threshold(self):
        marginal = TargetMarginal(
            kind={"full": 0.9, "none": 0.02},
            state={"ALIVE": 0.2, "HASNEXT": 0.75, "END": 0.05},
        )
        clause = clause_from_marginal("it", marginal, threshold=0.5)
        assert clause.kind == "full"
        assert clause.state == "HASNEXT"

    def test_clause_defaults_to_alive_below_threshold(self):
        marginal = TargetMarginal(
            kind={"full": 0.9, "none": 0.02},
            state={"ALIVE": 0.4, "HASNEXT": 0.35, "END": 0.25},
        )
        clause = clause_from_marginal("it", marginal, threshold=0.5)
        assert clause.state == "ALIVE"

    def test_no_clause_without_kind_marginal(self):
        assert clause_from_marginal("x", TargetMarginal(), 0.5) is None

    def test_count_helpers(self):
        from repro.permissions.spec import MethodSpec, PermClause

        specs = {
            "a": MethodSpec(requires=[PermClause("full", "x")]),
            "b": MethodSpec(),
        }
        assert count_nonempty(specs) == 1
        assert count_clauses(specs) == 1


class TestEndToEndInference:
    def test_figure3_conflict_resolution(self, figure3_program):
        _, specs = infer(figure3_program)
        wrapper = specs["Row.createColIter"]
        result_clauses = [
            clause for clause in wrapper.ensures if clause.target == "result"
        ]
        assert len(result_clauses) == 1
        # The 167-vs-3 vote of the paper: ALIVE wins over HASNEXT, and H3
        # makes the returned permission unique.
        assert result_clauses[0].state == "ALIVE"
        assert result_clauses[0].kind == "unique"

    def test_param_consumer_gets_full(self):
        program = build_program(
            """
            class D {
                int drain(Iterator<Integer> it) {
                    int acc = 0;
                    while (it.hasNext()) { acc = acc + it.next(); }
                    return acc;
                }
            }
            """
        )
        _, specs = infer(program)
        drain = specs["D.drain"]
        requires = {c.target: c for c in drain.requires}
        assert requires["it"].kind == "full"

    def test_annotated_methods_keep_declared_specs(self, api_program):
        _, specs = infer(api_program)
        # ListIterator.next is directly annotated; extraction keeps it.
        spec = specs["ListIterator.next"]
        assert spec.requires[0].state == "HASNEXT"

    def test_unused_params_get_no_annotations(self):
        program = build_program(
            "class U { int id(Collection<Integer> c, int x) { return x; } }"
        )
        _, specs = infer(program)
        assert specs["U.id"].is_empty

    def test_worklist_respects_max_iters(self, figure3_program):
        inference = AnekInference(
            figure3_program, settings=InferenceSettings(max_worklist_iters=2)
        )
        inference.run()
        assert inference.stats.solves <= 2

    def test_stats_populated(self, figure3_program):
        inference, _ = infer(figure3_program)
        assert inference.stats.methods > 0
        assert inference.stats.factors > 0
        assert inference.stats.elapsed_seconds > 0
        assert inference.stats.constraint_counts

    def test_summary_flow_between_methods(self):
        # The wrapper's unique(result) must reach the caller through the
        # summary store, making the caller's loop verify.
        program = build_program(
            """
            class W {
                @Perm("share") Collection<Integer> items;
                Iterator<Integer> createIter() { return items.iterator(); }
                int use() {
                    int acc = 0;
                    Iterator<Integer> it = createIter();
                    while (it.hasNext()) { acc = acc + it.next(); }
                    return acc;
                }
            }
            """
        )
        inference = AnekInference(program)
        specs = inference.extract_specs()
        by_name = {ref.qualified_name: s for ref, s in specs.items()}
        assert any(
            clause.kind == "unique"
            for clause in by_name["W.createIter"].ensures
        )
        from repro.plural.checker import check_program

        apply_specs(program, specs)
        warnings = check_program(program)
        assert warnings == []


class TestApplier:
    def test_apply_specs_attaches_annotations(self):
        program = build_program(
            """
            class W {
                @Perm("share") Collection<Integer> items;
                Iterator<Integer> createIter() { return items.iterator(); }
            }
            """
        )
        inference = AnekInference(program)
        specs = inference.extract_specs()
        changed = apply_specs(program, specs)
        assert changed >= 1
        method = method_ref(program, "W", "createIter").method_decl
        spec = spec_of_method(method)
        assert not spec.is_empty

    def test_existing_annotations_not_replaced_by_default(self, api_program):
        inference = AnekInference(api_program)
        specs = inference.extract_specs()
        list_iter_next = method_ref(api_program, "ListIterator", "next")
        before = spec_of_method(list_iter_next.method_decl)
        apply_specs(api_program, specs)
        after = spec_of_method(list_iter_next.method_decl)
        assert before == after

    def test_rendered_sources_parse_back(self):
        program = build_program(
            """
            class W {
                @Perm("share") Collection<Integer> items;
                Iterator<Integer> createIter() { return items.iterator(); }
            }
            """
        )
        inference = AnekInference(program)
        apply_specs(program, inference.extract_specs())
        sources = render_annotated_sources(program)
        from repro.java.parser import parse_compilation_unit

        for source in sources:
            parse_compilation_unit(source)  # must not raise
