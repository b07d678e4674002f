"""Integration tests: the full pipeline and the experiment harnesses."""

import pytest

from repro.core import AnekPipeline, InferenceSettings, infer_and_check
from repro.corpus import CorpusSpec
from repro.corpus.examples import figure3_sources
from repro.reporting.experiments import (
    PmdExperiment,
    categorize_specs,
    figure1_protocol,
    figure4_kinds,
    figure6_pfg,
    table3_experiment,
)
from repro.reporting.tables import Table, format_seconds


class TestPipeline:
    def test_figure3_end_to_end(self):
        result = infer_and_check(figure3_sources())
        # The paper's running example: exactly the unguarded next() calls
        # in testParseCSV warn; every other use verifies.
        assert all(w.method == "Row.testParseCSV" for w in result.warnings)
        assert len(result.warnings) >= 1
        assert result.inferred_annotation_count >= 3

    def test_stage_trace_has_all_stages(self):
        result = infer_and_check(figure3_sources())
        names = [stage.name for stage in result.stages]
        assert names == [
            "extractor",
            "anek-infer",
            "extract-specs",
            "applier",
            "plural-check",
        ]
        assert "ANEK pipeline" in result.describe_stages()

    def test_pipeline_without_checker(self):
        pipeline = AnekPipeline(run_checker=False)
        result = pipeline.run_on_sources(figure3_sources())
        assert all(stage.name != "plural-check" for stage in result.stages)
        assert result.warnings == []

    def test_annotated_sources_reparse(self):
        from repro.java.parser import parse_compilation_unit

        result = infer_and_check(figure3_sources())
        assert result.annotated_sources
        for source in result.annotated_sources:
            parse_compilation_unit(source)

    def test_settings_threshold_affects_extraction(self):
        strict = AnekPipeline(
            settings=InferenceSettings(threshold=0.95), run_checker=False
        ).run_on_sources(figure3_sources())
        loose = AnekPipeline(
            settings=InferenceSettings(threshold=0.5), run_checker=False
        ).run_on_sources(figure3_sources())
        assert strict.inferred_clause_count <= loose.inferred_clause_count


class TestTables:
    def test_render_table(self):
        table = Table("T", ["a", "b"]).add_row(1, "xy")
        text = table.render()
        assert "T" in text and "| 1 | xy |" in text

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            Table("T", ["a", "b"]).add_row(1)

    def test_format_seconds(self):
        assert format_seconds(3.2) == "3.2 sec"
        assert format_seconds(227) == "3min 47sec"
        assert format_seconds(None) == "-"


@pytest.fixture(scope="module")
def experiment():
    return PmdExperiment(
        corpus_spec=CorpusSpec().scaled(0.06),
        logical_budget=10**9,
    )


class TestPmdExperiment:
    def test_table1_statistics(self, experiment):
        stats, table = experiment.table1()
        assert stats["classes"] == experiment.bundle.spec.classes
        assert stats["lines"] == experiment.bundle.spec.lines
        assert "Calls to Iterator.next()" in table.render()

    def test_original_row(self, experiment):
        row = experiment.run_original()
        spec = experiment.bundle.spec
        assert row.annotations == 0
        assert row.warnings == (
            spec.unguarded_direct
            + 2 * spec.wrapper_users
            + 2 * spec.param_consumers
            + 2  # consumeFirst body
            + spec.misleading_setters
        )

    def test_bierhoff_row(self, experiment):
        row = experiment.run_bierhoff()
        assert row.warnings == experiment.bundle.spec.unguarded_direct
        assert row.annotations == len(oracle_specs_for(experiment))

    def test_anek_row_shape(self, experiment):
        row = experiment.run_anek()
        spec = experiment.bundle.spec
        # ANEK = oracle's false positives + exactly one consumeFirst miss.
        assert row.warnings == spec.unguarded_direct + 1
        assert row.annotations > 0
        assert row.check_seconds > 0

    def test_anek_logical_dnf(self, experiment):
        row = experiment.run_anek_logical()
        assert row.dnf

    def test_table4_categories(self, experiment):
        counts, table = experiment.table4()
        assert counts["ANEK Removed Spec."] == (
            experiment.bundle.spec.state_test_overrides
        )
        assert counts["Same"] >= 1
        assert counts["ANEK Changed Spec., Wrong"] >= 1
        rendered = table.render()
        assert "ANEK Removed Spec." in rendered


def oracle_specs_for(experiment):
    from repro.corpus.oracle import oracle_specs

    return oracle_specs(experiment.bundle)


class TestCategorization:
    def make_spec(self, requires=None, ensures=None, **kwargs):
        from repro.permissions.spec import MethodSpec, PermClause

        def clauses(items):
            return [PermClause(k, t, s) for k, t, s in (items or [])]

        return MethodSpec(
            requires=clauses(requires), ensures=clauses(ensures), **kwargs
        )

    def test_same(self):
        gold = {"m": self.make_spec(requires=[("full", "it", "ALIVE")])}
        inferred = {"m": self.make_spec(requires=[("full", "it", "ALIVE")])}
        counts = categorize_specs(inferred, gold)
        assert counts["Same"] == 1

    def test_removed_when_missing(self):
        gold = {"m": self.make_spec(requires=[("full", "it", "ALIVE")])}
        counts = categorize_specs({}, gold)
        assert counts["ANEK Removed Spec."] == 1

    def test_removed_when_state_test_lost(self):
        gold = {
            "m": self.make_spec(
                requires=[("pure", "this", "ALIVE")], true_indicates="HASNEXT"
            )
        }
        inferred = {"m": self.make_spec(requires=[("pure", "this", "ALIVE")])}
        counts = categorize_specs(inferred, gold)
        assert counts["ANEK Removed Spec."] == 1

    def test_more_restrictive(self):
        gold = {"m": self.make_spec(requires=[("pure", "it", "ALIVE")])}
        inferred = {"m": self.make_spec(requires=[("full", "it", "ALIVE")])}
        counts = categorize_specs(inferred, gold)
        assert counts["ANEK Changed Spec., More Restrictive"] == 1

    def test_wrong_when_weaker(self):
        gold = {"m": self.make_spec(requires=[("full", "it", "HASNEXT")])}
        inferred = {"m": self.make_spec(requires=[("pure", "it", "ALIVE")])}
        counts = categorize_specs(inferred, gold)
        assert counts["ANEK Changed Spec., Wrong"] == 1

    def test_added_helpful_vs_constraining(self):
        gold = {}
        inferred = {
            "a": self.make_spec(ensures=[("unique", "result", "ALIVE")]),
            "b": self.make_spec(requires=[("full", "it", "ALIVE")]),
        }
        counts = categorize_specs(inferred, gold)
        assert counts["ANEK Added Helpful Spec."] == 1
        assert counts["ANEK Added Constraining Spec."] == 1


class TestFigures:
    def test_figure1_dot(self):
        dot = figure1_protocol()
        assert "HASNEXT" in dot and "END" in dot

    def test_figure4_table(self):
        rendered = figure4_kinds().render()
        for kind in ("unique", "full", "share", "immutable", "pure"):
            assert kind in rendered

    def test_figure6_pfg_matches_paper_shape(self):
        pfg = figure6_pfg()
        labels = [node.label for node in pfg.nodes]
        assert "PRE original" in labels
        assert any("pre createColIter" in l for l in labels)
        assert any("pre hasNext" in l for l in labels)
        assert any("pre next" in l for l in labels)

    def test_table3_smoke(self):
        result = table3_experiment(methods=3)
        assert result.anek_seconds > 0
        assert result.local_seconds > 0
        assert result.local_satisfiable
