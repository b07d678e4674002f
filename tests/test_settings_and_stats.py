"""Tests for inference settings, stats bookkeeping, and small helpers."""

import pytest

from repro.cli import build_parser
from repro.core import AnekInference, InferenceSettings
from repro.core.infer import InferenceStats
from repro.corpus.iterator_api import iterator_protocol_dot
from repro.serve.protocol import ProtocolError, normalize_request
from tests.conftest import build_program

#: (request field = CLI dest, CLI flag, InferenceSettings field, value).
KNOB_ROWS = [
    ("threshold", "--threshold", "threshold", 0.5),
    ("threshold", "--threshold", "threshold", 0.99),
    ("threshold", "--threshold", "threshold", 0.4),
    ("threshold", "--threshold", "threshold", 1.0),
    ("threshold", "--threshold", "threshold", "x"),
    ("max_iters", "--max-iters", "max_worklist_iters", 0),
    ("max_iters", "--max-iters", "max_worklist_iters", 3),
    ("max_iters", "--max-iters", "max_worklist_iters", -1),
    ("executor", "--executor", "executor", "worklist"),
    ("executor", "--executor", "executor", "serial"),
    ("executor", "--executor", "executor", "thread"),
]

CLI_PREFIX = {
    "infer": ["infer", "A.java"],
    "client": ["client", "infer", "A.java", "--connect", "daemon.sock"],
}


class TestInferenceSettings:
    def test_default_resolves_to_three_passes(self):
        settings = InferenceSettings()
        assert settings.resolved_max_iters(10) == 30

    def test_explicit_cap_wins(self):
        settings = InferenceSettings(max_worklist_iters=7)
        assert settings.resolved_max_iters(100) == 7

    def test_zero_methods_still_positive(self):
        settings = InferenceSettings()
        assert settings.resolved_max_iters(0) >= 1

    def test_threshold_range_used_by_extraction(self):
        # The paper: t in [0.5, 1).  Values outside still behave sanely
        # (extraction simply becomes all-or-nothing).
        program = build_program(
            "class T { int id(int x) { return x; } }", include_api=False
        )
        inference = AnekInference(
            program, settings=InferenceSettings(threshold=0.99)
        )
        specs = inference.extract_specs()
        assert all(spec.is_empty for spec in specs.values())


class TestOneKnobSchema:
    """The CLI and serve accept and reject a run knob alike, because both
    ask :class:`InferenceSettings` and report its message."""

    @pytest.mark.parametrize("command", sorted(CLI_PREFIX))
    @pytest.mark.parametrize(
        "field,flag,setting,value",
        KNOB_ROWS,
        ids=["%s=%s" % (row[0], row[3]) for row in KNOB_ROWS],
    )
    def test_cli_and_serve_agree(
        self, capsys, command, field, flag, setting, value
    ):
        try:
            InferenceSettings(**{setting: value})
            expected = None
        except ValueError as exc:
            expected = str(exc)
        argv = CLI_PREFIX[command] + [flag, str(value)]
        request = {"op": "infer", "sources": ["class A {}"], field: value}
        if expected is None:
            assert getattr(build_parser().parse_args(argv), field) == value
            assert normalize_request(request)[field] == value
            return
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 3
        assert "%s: %s" % (flag, expected) in capsys.readouterr().err
        with pytest.raises(ProtocolError) as error:
            normalize_request(request)
        assert str(error.value) == expected

    def test_out_of_range_and_mistyped_knobs_rejected(self):
        with pytest.raises(ValueError, match=r"threshold must be a number in"):
            InferenceSettings(threshold=2.0)
        with pytest.raises(ValueError, match="max_worklist_iters must be"):
            InferenceSettings(max_worklist_iters=-5)
        for value in ("5", True, 2.5):
            with pytest.raises(ValueError, match="max_rss_mb must be"):
                InferenceSettings(max_rss_mb=value)
        with pytest.raises(ProtocolError, match="max_worklist_iters must be"):
            normalize_request(
                {"op": "infer", "sources": ["class A {}"], "max_iters": True}
            )


class TestInferenceStats:
    def test_stats_accumulate(self):
        program = build_program(
            """
            class T {
                @Perm("share") Collection<Integer> items;
                Iterator<Integer> createIt() { return items.iterator(); }
                boolean peek() { return createIt().hasNext(); }
            }
            """
        )
        inference = AnekInference(program)
        inference.run()
        stats = inference.stats
        assert stats.methods >= 2
        assert stats.solves >= stats.methods
        assert stats.pfg_nodes > 0
        assert stats.factors > 0
        assert stats.elapsed_seconds > 0

    def test_fresh_stats_are_zero(self):
        stats = InferenceStats()
        assert stats.methods == 0
        assert stats.constraint_counts == {}


class TestSmallHelpers:
    def test_iterator_protocol_dot(self):
        dot = iterator_protocol_dot()
        assert "ALIVE -> HASNEXT" in dot

    def test_summary_store_counts(self):
        from repro.core.summaries import SummaryStore, TargetMarginal

        store = SummaryStore()
        assert store.evidence_count() == 0
        store.deposit_evidence(
            "callee", "pre", "it", ("site", 0), TargetMarginal(kind={"pure": 1.0})
        )
        assert store.evidence_count() == 1

    def test_pipeline_preannotated_tracking(self):
        from repro.core import AnekPipeline
        from repro.corpus.examples import figure3_sources

        result = AnekPipeline(run_checker=False).run_on_sources(
            figure3_sources()
        )
        # Only inferred (body-carrying) methods are tracked; the API
        # implementation class is pre-annotated, the client is not.
        assert "ListIterator.next" in result.preannotated_methods
        assert "Row.copy" not in result.preannotated_methods
