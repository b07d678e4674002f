"""Unit tests for the resilience layer and its satellites.

Covers the failure ledger, the policy, the deterministic fault-injection
plan machinery, CLI exit codes and argument validation, the
malformed-input corpus smoke test, and cache schema-validation
quarantine.  The end-to-end fault differential harness lives in
``tests/test_fault_injection.py``.
"""

import io
import json
import pickle

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.pipeline import AnekPipeline, infer_and_check
from repro.corpus.examples import FIGURE3_CLIENT
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.resilience.faults import (
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    clear_fault_plan,
    install_fault_plan,
    maybe_fault,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import (
    FailureRecord,
    FailureReport,
    record_from_exception,
)

from tests.conftest import build_program


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Every test starts and ends without an installed fault plan."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_fault_plan()
    yield
    clear_fault_plan()


# ---------------------------------------------------------------------------
# The failure ledger
# ---------------------------------------------------------------------------


class TestFailureReport:
    def test_empty_report_is_clean(self):
        report = FailureReport()
        assert report.is_clean
        assert not report
        assert len(report) == 0
        assert not report.has_degradation
        assert "no failures" in report.summary_line()

    def test_record_from_exception(self):
        record = record_from_exception(
            "solve", "A.m#0", ValueError("boom"), "recovered", retries=2
        )
        assert record.error == "ValueError"
        assert record.retries == 2
        assert "recovered" in record.format()
        assert "2 retries" in record.format()

    def test_recovered_only_is_not_degraded(self):
        report = FailureReport()
        report.record("solve", "A.m#0", RuntimeError("x"), "recovered")
        report.record("solve", "B.n#0", RuntimeError("x"), "recovered")
        assert report
        assert not report.has_degradation
        assert "all failures recovered" in report.summary_line()

    def test_quarantine_is_degraded(self):
        report = FailureReport()
        report.record("parse", "unit:1", RuntimeError("x"), "unit-quarantined")
        assert report.has_degradation
        assert report.degraded() == report.records
        assert "completed with quarantines" in report.summary_line()

    def test_by_stage_and_payload(self):
        report = FailureReport()
        report.record("parse", "unit:0", ValueError("a"), "unit-quarantined")
        report.record("solve", "A.m#0", ValueError("b"), "recovered")
        report.record("solve", "B.n#1", ValueError("c"), "degraded-prior-only")
        assert report.by_stage() == {"parse": 1, "solve": 2}
        payload = json.loads(report.to_json())
        assert payload["degraded"] is True
        assert len(payload["failures"]) == 3
        assert payload["failures"][0]["stage"] == "parse"

    def test_records_pickle(self):
        record = FailureRecord(
            stage="solve",
            key="A.m#0",
            error="ValueError",
            message="x",
            disposition="recovered",
        )
        assert pickle.loads(pickle.dumps(record)) == record


# ---------------------------------------------------------------------------
# The policy
# ---------------------------------------------------------------------------


class TestResiliencePolicy:
    def test_defaults_enabled(self):
        policy = ResiliencePolicy()
        assert policy.enabled
        assert policy.solve_retries >= 1

    def test_disabled(self):
        assert not ResiliencePolicy.disabled().enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(solve_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(solve_deadline=-0.1)

    def test_retry_damping_escalates_and_caps(self):
        from repro.core.infer import BP_DAMPING
        from repro.resilience.guard import RETRY_DAMPING, _attempt_ladder

        ladder = _attempt_ladder(ResiliencePolicy(solve_retries=5))
        # Attempt 0 and the identical-parameter retry, then four
        # escalating retries: one damping schedule for either engine.
        assert ladder[:2] == [BP_DAMPING] * 2
        values = ladder[2:]
        assert len(values) == 4
        assert values == sorted(values)
        assert values[0] == RETRY_DAMPING
        assert all(RETRY_DAMPING <= v <= 0.9 for v in values)

    def test_settings_reject_bad_policy(self):
        from repro.core.infer import InferenceSettings

        with pytest.raises(ValueError):
            InferenceSettings(policy="aggressive")


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(stage="nope", key="")
        with pytest.raises(ValueError):
            FaultSpec(stage="solve", key="", kind="explode")
        for stage in ("worker", "worker-recover"):
            with pytest.raises(ValueError):
                FaultSpec(stage=stage, key="")
        with pytest.raises(ValueError):
            FaultSpec(stage="solve", key="", kind="kill")

    def test_no_plan_is_noop(self):
        assert maybe_fault("solve", "anything") is None

    def test_raise_kind_and_count_burnout(self):
        install_fault_plan([{"stage": "solve", "key": "A.m", "kind": "raise"}])
        with pytest.raises(InjectedFault):
            maybe_fault("solve", "A.m#0")
        # count=1 burnt out: same site no longer fires.
        assert maybe_fault("solve", "A.m#0") is None

    def test_substring_and_stage_matching(self):
        plan = install_fault_plan(
            [{"stage": "solve", "key": "B.n", "kind": "nan", "count": -1}]
        )
        assert maybe_fault("pfg", "B.n#0") is None  # wrong stage
        assert maybe_fault("solve", "A.m#0") is None  # wrong key
        assert maybe_fault("solve", "B.n#0") == "nan"
        assert maybe_fault("solve", "B.n#0") == "nan"  # unlimited
        assert plan.fired == [
            ("solve", "B.n#0", "nan"),
            ("solve", "B.n#0", "nan"),
        ]

    def test_env_roundtrip(self, monkeypatch):
        plan = FaultPlan(
            [FaultSpec(stage="parse", key="unit:1", kind="raise")]
        )
        monkeypatch.setenv(ENV_VAR, plan.env()[ENV_VAR])
        clear_fault_plan()  # force the lazy env parse
        with pytest.raises(InjectedFault):
            maybe_fault("parse", "unit:1")

    def test_marker_is_once_only_across_plans(self, tmp_path):
        marker = str(tmp_path / "fired.marker")
        spec = {"stage": "solve", "key": "", "kind": "raise", "count": -1,
                "marker": marker}
        install_fault_plan([spec])
        with pytest.raises(InjectedFault):
            maybe_fault("solve", "X.y#0")
        # A fresh plan (a forked worker's copy) sees the claimed marker.
        install_fault_plan([spec])
        assert maybe_fault("solve", "X.y#0") is None


# ---------------------------------------------------------------------------
# Malformed-input corpus: quarantine, never crash
# ---------------------------------------------------------------------------

MALFORMED_SOURCES = [
    "",  # empty file
    "class Truncated { void f() {",  # truncated body
    "class Comment { } /* unterminated",  # unterminated block comment
    'class Str { String s = "unterminated; }',  # unterminated string
    "☃ class Snowman { }",  # stray unicode at top level
    "class A { void f( { if } }",  # garbled parameter list
]


class TestMalformedCorpus:
    def _specs(self, result):
        return {
            ref.qualified_name: str(spec)
            for ref, spec in result.specs.items()
            if not spec.is_empty
        }

    def test_malformed_units_quarantined_not_fatal(self):
        good = [ITERATOR_API_SOURCE, FIGURE3_CLIENT]
        clean = infer_and_check(good)
        assert clean.failures.is_clean
        mixed = infer_and_check(good + MALFORMED_SOURCES)
        # The run completed, quarantining only the malformed units...
        assert mixed.degraded
        stages = {record.stage for record in mixed.failures}
        assert stages <= {"parse", "resolve"}
        quarantined_keys = {record.key for record in mixed.failures}
        expected = {"unit:%d" % (len(good) + i)
                    for i in range(len(MALFORMED_SOURCES))}
        # Every quarantined unit is one of the malformed ones (some
        # malformed sources may legitimately parse to empty units).
        assert quarantined_keys <= expected
        assert len(quarantined_keys) >= 3
        # ...and the surviving units' specs are unchanged.
        assert self._specs(mixed) == self._specs(clean)

    def test_no_resilience_raises_on_malformed(self):
        from repro.core.infer import InferenceSettings

        pipeline = AnekPipeline(
            settings=InferenceSettings(policy=ResiliencePolicy.disabled())
        )
        with pytest.raises(Exception):
            pipeline.run_on_sources(
                [ITERATOR_API_SOURCE, "class Broken { /* nope"]
            )


# ---------------------------------------------------------------------------
# CLI exit codes, validation, --fail-report
# ---------------------------------------------------------------------------


class TestCliResilience:
    @pytest.fixture
    def demo_file(self, tmp_path):
        path = tmp_path / "Demo.java"
        path.write_text(
            """
class Demo {
    int total(java.util.List items) {
        Iterator it = items.iterator();
        int n = 0;
        while (it.hasNext()) { it.next(); n = n + 1; }
        return n;
    }
}
"""
        )
        return str(path)

    @pytest.fixture
    def broken_file(self, tmp_path):
        path = tmp_path / "Broken.java"
        path.write_text("class Broken { void f( { /* nope")
        return str(path)

    def test_clean_run_exits_zero(self, demo_file):
        out = io.StringIO()
        assert cli_main(["infer", demo_file, "--no-cache"], out) == 0

    def test_quarantined_run_exits_two(self, demo_file, broken_file):
        out = io.StringIO()
        code = cli_main(
            ["infer", demo_file, broken_file, "--no-cache"], out
        )
        assert code == 2
        assert "completed with quarantines" in out.getvalue()

    def test_fail_report_json(self, demo_file, broken_file, tmp_path):
        report_path = tmp_path / "failures.json"
        code = cli_main(
            ["infer", demo_file, broken_file, "--no-cache",
             "--fail-report", str(report_path)],
            io.StringIO(),
        )
        assert code == 2
        payload = json.loads(report_path.read_text())
        assert payload["degraded"] is True
        assert payload["by_stage"] == {"parse": 1}
        (record,) = payload["failures"]
        assert record["disposition"] == "unit-quarantined"
        assert record["key"] == "unit:2"  # API unit is 0, demo is 1

    def test_usage_errors_exit_three(self, demo_file):
        for argv in (
            ["infer", demo_file, "--jobs", "0"],
            ["infer", demo_file, "--jobs", "-2"],
            ["infer", demo_file, "--jobs", "2"],
            ["infer", demo_file, "--threshold", "0.4"],
            ["infer", demo_file, "--threshold", "1.0"],
            ["infer", demo_file, "--solve-retries", "-1"],
            ["infer", demo_file, "--worker-timeout", "-5"],
            ["infer", demo_file, "--worker-timeout", "1"],
            ["infer", demo_file, "--worker-retries", "1"],
            ["infer", demo_file, "--executor", "thread"],
            ["infer", demo_file, "--executor", "process"],
            ["infer", demo_file, "--shards", "2"],
            ["infer", demo_file, "--run-dir", "runs/a"],
            ["check", demo_file, "--run-dir", "runs/a"],
            ["client", "--connect", "/nonexistent.sock", "--jobs", "2",
             demo_file],
            ["table", "5", "--jobs", "2"],
            ["infer", demo_file, "--solve-deadline", "nan"],
            ["infer", demo_file, "--solve-deadline", "inf"],
            ["serve", "--batch-window", "nan"],
            ["serve", "--restart-window", "inf"],
            ["serve", "--restart-backoff", "nan"],
            ["serve", "--restart-backoff-max", "-inf"],
            ["client", "ping", "--connect", "/nonexistent.sock",
             "--timeout", "nan"],
            ["client", "infer", demo_file, "--connect", "/nonexistent.sock",
             "--deadline", "inf"],
            ["client", "ping", "--connect", "/nonexistent.sock",
             "--call-deadline", "nan"],
            ["fuzz", "--case-deadline", "nan"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv, io.StringIO())
            assert exc.value.code == 3

    def test_rss_budget_without_run_dir_is_usage_error(
        self, demo_file, capsys
    ):
        """Only the cache can continue a stopped run, so a budget with
        ``--no-cache`` is refused before anything runs."""
        code = cli_main(
            ["infer", demo_file, "--no-cache", "--max-rss-mb", "1"],
            io.StringIO(),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "--max-rss-mb needs the analysis cache" in err
        assert "fatal" not in err

    def test_checkpoint_every_without_run_dir_is_usage_error(
        self, demo_file, capsys
    ):
        """Checkpoints are gone with the run directory: the flag is an
        unknown argument."""
        for every in ("1", "5"):
            with pytest.raises(SystemExit) as exc:
                cli_main(
                    ["infer", demo_file, "--no-cache",
                     "--checkpoint-every", every],
                    io.StringIO(),
                )
            assert exc.value.code == 3
            err = capsys.readouterr().err
            assert "unrecognized arguments: --checkpoint-every" in err
            assert "fatal" not in err

    def test_check_threshold_without_run_dir_is_usage_error(
        self, demo_file, capsys
    ):
        """``check`` re-extracted specs at a threshold only from a run
        directory; ``infer --threshold`` warm-starts from the cache
        instead, so ``check --threshold`` is an unknown argument."""
        with pytest.raises(SystemExit) as exc:
            cli_main(
                ["check", demo_file, "--threshold", "0.9"], io.StringIO()
            )
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threshold" in err
        assert "fatal" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["infer", "{file}", "--engine", "loopy"],
            ["infer", "{file}", "--check-tier", "full"],
            ["check", "{file}", "--check-tier", "full"],
            ["client", "infer", "{file}", "--connect", "/nonexistent.sock",
             "--engine", "loopy"],
            ["client", "check", "{file}", "--connect", "/nonexistent.sock",
             "--check-tier", "full"],
        ],
        ids=["infer-engine", "infer-tier", "check-tier", "client-engine",
             "client-tier"],
    )
    def test_removed_selectors_are_usage_errors(self, demo_file, argv):
        """The loopy engine and the full check tier are API-only
        references (``InferenceSettings(engine=)``,
        ``AnekPipeline(check_tier=)``); no flag selects them."""
        with pytest.raises(SystemExit) as exc:
            cli_main([arg.format(file=demo_file) for arg in argv],
                     io.StringIO())
        assert exc.value.code == 3

    def test_fatal_error_exits_four(self, capsys):
        code = cli_main(
            ["infer", "/nonexistent/Missing.java", "--no-cache"],
            io.StringIO(),
        )
        assert code == 4
        assert "fatal" in capsys.readouterr().err

    def test_debug_reraises(self):
        with pytest.raises(FileNotFoundError):
            cli_main(
                ["--debug", "infer", "/nonexistent/Missing.java",
                 "--no-cache"],
                io.StringIO(),
            )

    def test_no_resilience_makes_parse_errors_fatal(
        self, demo_file, broken_file, capsys
    ):
        code = cli_main(
            ["infer", demo_file, broken_file, "--no-cache",
             "--no-resilience"],
            io.StringIO(),
        )
        assert code == 4
        assert "fatal" in capsys.readouterr().err

    def test_env_fault_hook(self, demo_file, monkeypatch):
        plan = FaultPlan(
            [FaultSpec(stage="parse", key="unit:1", kind="raise")]
        )
        monkeypatch.setenv(ENV_VAR, plan.env()[ENV_VAR])
        out = io.StringIO()
        code = cli_main(["infer", demo_file, "--no-cache"], out)
        assert code == 2
        assert "unit:1" in out.getvalue()


# ---------------------------------------------------------------------------
# Cache hardening: schema-invalid entries are quarantined
# ---------------------------------------------------------------------------


class TestCacheSchemaValidation:
    def _run(self, cache, sources):
        pipeline = AnekPipeline(
            run_checker=False, apply_annotations=False, cache=cache
        )
        return pipeline.run_on_sources(sources)

    def _entry_paths(self, cache_dir):
        import os

        found = []
        for root, _dirs, files in os.walk(str(cache_dir / "objects")):
            for name in files:
                if name.endswith(".pkl"):
                    found.append(os.path.join(root, name))
        return sorted(found)

    def test_schema_invalid_entries_quarantined(self, tmp_path):
        from repro.cache import AnalysisCache

        cache_dir = tmp_path / "cache"
        sources = [ITERATOR_API_SOURCE, FIGURE3_CLIENT]
        clean = self._run(AnalysisCache(cache_dir=str(cache_dir)), sources)

        # Garble every entry into a *valid pickle* of the wrong shape:
        # deserialization succeeds, schema validation must catch it.
        paths = self._entry_paths(cache_dir)
        assert paths
        for path in paths:
            with open(path, "wb") as handle:
                pickle.dump({"wrong": "shape"}, handle)

        cache = AnalysisCache(cache_dir=str(cache_dir))
        with pytest.warns(RuntimeWarning, match="schema-invalid"):
            reran = self._run(cache, sources)
        assert cache.stats.schema_invalid > 0
        # These were NOT pickle-corrupt: the corrupt counter stays put.
        assert cache.stats.corrupt_entries == 0
        # The run silently fell back to a cold build: same output.
        clean_specs = {
            ref.qualified_name: str(spec) for ref, spec in clean.specs.items()
        }
        reran_specs = {
            ref.qualified_name: str(spec) for ref, spec in reran.specs.items()
        }
        assert reran_specs == clean_specs
        # Quarantine deleted + resaved the entries: a third run hits.
        cache3 = AnalysisCache(cache_dir=str(cache_dir))
        self._run(cache3, sources)
        assert cache3.stats.schema_invalid == 0
        assert cache3.stats.hits() > 0

    def test_schema_invalid_verdicts_are_planned_again(self, tmp_path):
        from repro.cache import AnalysisCache

        cache_dir = tmp_path / "cache"
        sources = [ITERATOR_API_SOURCE, FIGURE3_CLIENT]
        self._run(AnalysisCache(cache_dir=str(cache_dir)), sources)
        before = set(self._entry_paths(cache_dir))

        def checked():
            cache = AnalysisCache(cache_dir=str(cache_dir))
            result = AnekPipeline(cache=cache).run_on_sources(sources)
            return cache.stats, result

        _, clean = checked()
        verdicts = sorted(set(self._entry_paths(cache_dir)) - before)
        assert len(verdicts) == clean.check.tier1_methods + (
            clean.check.tier2_methods
        )
        for path in verdicts:
            with open(path, "wb") as handle:
                pickle.dump({"wrong": "shape"}, handle)
        with pytest.warns(RuntimeWarning, match="schema-invalid verdict"):
            stats, reran = checked()
        assert stats.schema_invalid == len(verdicts)
        assert stats.verdict_misses == len(verdicts)
        assert reran.check.to_payload() == dict(
            clean.check.to_payload(),
            tier1_seconds=reran.check.tier1_seconds,
            tier2_seconds=reran.check.tier2_seconds,
        )
        assert [w.format() for w in reran.warnings] == [
            w.format() for w in clean.warnings
        ]
        stats, _ = checked()
        assert (stats.verdict_hits, stats.schema_invalid) == (len(verdicts), 0)

    def test_cache_stats_describe_mentions_schema_counter(self):
        from repro.cache.manager import CacheStats

        stats = CacheStats(schema_invalid=3)
        assert "schema-invalid 3" in stats.describe()
