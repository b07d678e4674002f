"""The tiered-checker differential harness.

The bit-vector fast path's contract, locked in end to end:

* **bit-identity** — ``run_check(tier="auto")`` produces exactly the
  full checker's warning list (same warnings, same order, same text) on
  every program: the golden corpus (annotated and not), inferred specs
  under every executor/engine/shard combination, adversarial edge cases,
  and Hypothesis-generated random disciplines;
* **graceful residue** — anything tier 1 cannot prove (state spaces past
  64 states, aliases in loops, unproven sites) falls through to the full
  checker rather than warning or crashing;
* **fault tolerance** — an injected tier-1 fault degrades the affected
  method (or the whole tier) to the full checker with a
  ``tier-fallback`` ledger record, never a changed warning set;
* the CLI knob (``--check-stats``) round-trips;
  the tier itself is an API-only switch (``run_check(tier=)``,
  ``AnekPipeline(check_tier=)``), and serve refuses a ``check_tier``
  request field.
"""

import io
import os

import pytest

np = pytest.importorskip("numpy")

from repro.cli import main as cli_main
from repro.core.pipeline import AnekPipeline
from repro.core.infer import InferenceSettings
from repro.corpus import CorpusSpec, generate_pmd_corpus
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.corpus.oracle import apply_oracle
from repro.corpus.stream_api import STREAM_API_SOURCE
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.plural import bitvector
from repro.plural.checker import CHECK_TIERS, PluralChecker, run_check
from repro.resilience.faults import (
    ENV_VAR,
    FaultSpec,
    clear_fault_plan,
    install_fault_plan,
)
from repro.resilience.report import FailureReport
from tests.conftest import build_program

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") == "1"


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_fault_plan()
    yield
    clear_fault_plan()


def fmt(warnings):
    return [w.format() for w in warnings]


def assert_tiers_identical(program):
    """The hard bar: tiered warning output ≡ full, bit for bit."""
    full = run_check(program, tier="full")
    auto = run_check(program, tier="auto")
    assert fmt(auto.warnings) == fmt(full.warnings)
    return auto


def corpus_program(spec, oracle=False):
    bundle = generate_pmd_corpus(spec)
    program = resolve_program(
        [parse_compilation_unit(source) for source in bundle.all_sources()]
    )
    if oracle:
        apply_oracle(program, bundle)
    return program


# ---------------------------------------------------------------------------
# Corpus differentials
# ---------------------------------------------------------------------------


class TestCorpusDifferential:
    def test_unannotated_corpus(self):
        auto = assert_tiers_identical(corpus_program(CorpusSpec().scaled(0.08)))
        assert auto.tier == "auto"
        assert auto.tier1_methods > auto.tier2_methods

    def test_oracle_annotated_corpus(self):
        auto = assert_tiers_identical(
            corpus_program(CorpusSpec().scaled(0.08), oracle=True)
        )
        # The annotated corpus is the protocol-heavy case the fast path
        # exists for: the sweep must prove the bulk of all call sites.
        assert auto.site_coverage > 0.5

    @pytest.mark.parametrize(
        "executor,engine", [("worklist", "compiled"), ("serial", "loopy")]
    )
    def test_inferred_specs_differential(self, executor, engine):
        """Specs applied by inference (either schedule, either engine)
        feed both tiers identically."""
        bundle = generate_pmd_corpus(CorpusSpec().scaled(0.05))
        program = resolve_program(
            [parse_compilation_unit(s) for s in bundle.all_sources()]
        )
        settings = InferenceSettings(executor=executor, engine=engine)
        pipeline = AnekPipeline(settings=settings, run_checker=False)
        pipeline.run_on_program(program)
        assert_tiers_identical(program)

    @pytest.mark.skipif(
        not FULL_SCALE, reason="scaled(4) differential needs REPRO_FULL_SCALE=1"
    )
    @pytest.mark.parametrize("oracle", [False, True])
    def test_scaled_corpus_differential(self, oracle):
        assert_tiers_identical(
            corpus_program(CorpusSpec().scaled(4), oracle=oracle)
        )


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


def many_states_api(count):
    """A protocol whose state space exceeds the 64-bit lane budget."""
    states = ", ".join("S%d" % i for i in range(count))
    return """
    @States("%s")
    interface Wide {
        @Perm(requires="full(this) in S0", ensures="full(this) in S1")
        void step();
    }
    interface WideSource {
        @Perm(ensures="unique(result) in S0")
        Wide make();
    }
    """ % states


class TestEdgeCases:
    def test_empty_specs_all_proven(self):
        program = build_program(
            """
            class Plain {
                int add(int a, int b) { return a + b; }
                int twice(int a) { return add(a, a); }
            }
            """,
            include_api=False,
        )
        auto = run_check(program, tier="auto")
        assert auto.warnings == []
        assert auto.tier2_methods == 0
        assert fmt(run_check(program, tier="full").warnings) == []

    def test_single_state_protocol(self):
        program = build_program(
            """
            @States("DONE")
            class Once {
                @Perm(requires="full(this) in DONE", ensures="full(this)")
                void useIt() { }
            }
            class OnceClient {
                void go(Once o) { o.useIt(); }
            }
            """,
            include_api=False,
        )
        assert_tiers_identical(program)

    def test_state_overflow_falls_back(self):
        program = build_program(
            many_states_api(70),
            """
            class WideClient {
                void go(WideSource src) {
                    Wide w = src.make();
                    w.step();
                    w.step();
                }
            }
            """,
            include_api=False,
        )
        checker = PluralChecker(program)
        outcome = bitvector.BitVectorChecker(checker).partition(
            list(program.methods_with_bodies())
        )
        assert "state-overflow" in dict(outcome.residue).values()
        assert_tiers_identical(program)

    def test_state_test_through_scalar_on_back_edge(self):
        # The hasNext() verdict crosses the back edge via a boolean —
        # tier 1 must either track the guard or fall back, never
        # diverge from the full checker.
        program = build_program(
            """
            class BackEdge {
                int drain(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    int sum = 0;
                    boolean go = it.hasNext();
                    while (go) {
                        sum = sum + it.next();
                        go = it.hasNext();
                    }
                    return sum;
                }
            }
            """
        )
        assert_tiers_identical(program)

    def test_alias_inside_loop_falls_back(self):
        program = build_program(
            """
            class LoopAlias {
                int drain(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    int sum = 0;
                    while (it.hasNext()) {
                        Iterator<Integer> again = it;
                        sum = sum + again.next();
                    }
                    return sum;
                }
            }
            """
        )
        assert_tiers_identical(program)

    def test_hierarchical_stream_protocol(self):
        from repro.corpus.stream_api import STREAM_CLIENT_GOOD

        program = build_program(
            STREAM_API_SOURCE, STREAM_CLIENT_GOOD, include_api=False
        )
        auto = assert_tiers_identical(program)
        assert auto.warnings == []


# ---------------------------------------------------------------------------
# Per-method verdicts: what the persistent cache replays
# ---------------------------------------------------------------------------


def verdicts_alone_and_together(program):
    """Each method's ``(reason, sites)`` from a partition of that method
    alone and from one partition of all methods."""
    checker = PluralChecker(program)
    methods = list(program.methods_with_bodies())
    together = {
        ref: (reason, sites)
        for ref, reason, sites in bitvector.BitVectorChecker(checker)
        .partition(methods)
        .verdicts
    }
    alone = {}
    for ref in methods:
        ((_ref, reason, sites),) = (
            bitvector.BitVectorChecker(checker).partition([ref]).verdicts
        )
        alone[ref] = (reason, sites)
    return alone, together


def inferred_program(sources):
    """``sources`` resolved, inferred and annotated, as the pipeline's
    checker sees them; None when inference degraded."""
    result = AnekPipeline(run_checker=False).run_on_sources(sources)
    return None if result.degraded else result.program


def golden_programs():
    from tests.test_golden_specs import PROGRAMS
    from tests.test_parallel_differential import CORPUS

    named = {name: make() for name, make in PROGRAMS.items()}
    named.update(CORPUS)
    return named


class TestVerdictIndependence:
    """A method's tier-1 verdict depends on that method alone, never on
    which other methods share its partition: a warm run plans only the
    methods an edit can change and must reach the verdicts of a cold run
    that planned every method."""

    @pytest.mark.parametrize("name", sorted(golden_programs()))
    def test_golden_programs(self, name):
        program = inferred_program(golden_programs()[name])
        alone, together = verdicts_alone_and_together(program)
        assert alone == together

    @pytest.mark.parametrize("oracle", [False, True])
    def test_scaled_corpus(self, oracle):
        alone, together = verdicts_alone_and_together(
            corpus_program(CorpusSpec().scaled(0.05), oracle=oracle)
        )
        assert alone == together
        assert any(reason is None for reason, _sites in together.values())

    def test_inferred_scaled_corpus(self):
        bundle = generate_pmd_corpus(
            CorpusSpec(seed=100, filler_call_density=0.12).scaled(0.03)
        )
        alone, together = verdicts_alone_and_together(
            inferred_program(bundle.all_sources())
        )
        assert alone == together

    def test_fuzz_valid_survivors(self):
        from repro.fuzz.generator import FAMILIES, generate_case

        checked = 0
        for index in range(0, 12 * len(FAMILIES), len(FAMILIES)):
            case = generate_case(7, index)
            assert case.family == "valid"
            program = inferred_program(list(case.pipeline_sources()))
            if program is None:
                continue
            alone, together = verdicts_alone_and_together(program)
            assert alone == together, case.index
            checked += 1
        assert checked >= 10

    def test_states_of_other_methods_do_not_overflow(self):
        """A 61-state protocol whose two clients each name states it
        never declared: 63 and 64 states, one client at a time.  One
        machine per class for the whole partition would hold 65, and
        the second client would read ``state-overflow``.  Each plan
        interns into machines of its own."""
        states = ", ".join("S%d" % i for i in range(60))
        program = build_program(
            """
            @States("%s")
            interface Wide {
                @Perm(requires="full(this) in U1", ensures="full(this) in U2")
                void a();
                @Perm(requires="full(this) in V1", ensures="full(this) in V2")
                void b();
            }
            interface WideSource {
                @Perm(ensures="unique(result) in U1")
                Wide make();
            }
            class First {
                void go(WideSource src) { Wide w = src.make(); w.a(); }
            }
            class Second {
                void go(WideSource src) { Wide w = src.make(); w.b(); }
            }
            """ % states,
            include_api=False,
        )
        alone, together = verdicts_alone_and_together(program)
        assert alone == together
        assert "state-overflow" not in {
            reason for reason, _sites in together.values()
        }
        assert_tiers_identical(program)


# ---------------------------------------------------------------------------
# Property tests: random disciplines, identical verdicts
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

KINDS = ("unique", "full", "share", "immutable", "pure")


@st.composite
def random_protocol_programs(draw):
    """A random flat typestate discipline plus a random client."""
    n_states = draw(st.integers(min_value=1, max_value=5))
    states = ["T%d" % i for i in range(n_states)]
    methods = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(KINDS))
        req = draw(st.sampled_from(states + ["ALIVE"]))
        ens = draw(st.sampled_from(states + ["ALIVE"]))
        methods.append(
            '@Perm(requires="%s(this) in %s", ensures="%s(this) in %s")\n'
            "    void op%d() { }" % (kind, req, kind, ens, index)
        )
    api = '@States("%s")\nclass Proto {\n    Proto() { }\n    %s\n}' % (
        ", ".join(states),
        "\n    ".join(methods),
    )
    calls = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(methods) - 1),
            min_size=0,
            max_size=6,
        )
    )
    guarded = draw(st.booleans())
    body = []
    for pos, index in enumerate(calls):
        call = "p.op%d();" % index
        if guarded and pos % 2:
            call = "if (flag) { %s }" % call
        body.append(call)
    client = (
        "class Client {\n"
        "    void use(boolean flag) {\n"
        "        Proto p = new Proto();\n"
        "        %s\n"
        "    }\n"
        "}" % "\n        ".join(body)
    )
    return api, client


class TestRandomDisciplines:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(random_protocol_programs())
    def test_random_discipline_verdicts_identical(self, sources):
        api, client = sources
        program = build_program(api, client, include_api=False)
        assert_tiers_identical(program)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [
                    "total = total + s.read();",
                    "if (s.ready()) { total = total + s.read(); }",
                    "while (s.ready()) { total = total + s.read(); }",
                    "total = total + s.position();",
                    "s.close();",
                ]
            ),
            min_size=0,
            max_size=5,
        )
    )
    def test_random_stream_clients_identical(self, statements):
        client = (
            "class RandomClient {\n"
            "    int go(FileSystem fs, String path) {\n"
            "        Stream s = fs.open(path);\n"
            "        int total = 0;\n"
            "        %s\n"
            "        return total;\n"
            "    }\n"
            "}" % "\n        ".join(statements)
        )
        program = build_program(
            STREAM_API_SOURCE, client, include_api=False
        )
        assert_tiers_identical(program)


# ---------------------------------------------------------------------------
# The run_check API
# ---------------------------------------------------------------------------


class TestRunCheckApi:
    def test_unknown_tier_rejected(self, figure3_program):
        with pytest.raises(ValueError, match="unknown check tier"):
            run_check(figure3_program, tier="turbo")

    def test_tier_names_locked(self):
        assert CHECK_TIERS == ("full", "auto")

    def test_describe_mentions_tiers(self, figure3_program):
        run = run_check(figure3_program, tier="auto")
        text = run.describe()
        assert "tier1" in text and "tier2" in text
        full = run_check(figure3_program, tier="full")
        assert full.describe().startswith("check: tier=full")

    def test_site_coverage_bounds(self, figure3_program):
        run = run_check(figure3_program, tier="auto")
        assert 0.0 <= run.site_coverage <= 1.0
        assert run.total_seconds == run.tier1_seconds + run.tier2_seconds


# ---------------------------------------------------------------------------
# Fault injection: tier-1 faults degrade to the full checker
# ---------------------------------------------------------------------------


class TestCheckFaults:
    def test_injected_fault_degrades_method_not_output(self, figure3_program):
        clean = run_check(figure3_program, tier="auto")
        install_fault_plan(
            [FaultSpec(stage="check", key="", kind="raise", count=1)]
        )
        failures = FailureReport()
        faulted = run_check(figure3_program, tier="auto", failures=failures)
        clear_fault_plan()
        assert fmt(faulted.warnings) == fmt(clean.warnings)
        (record,) = [r for r in failures if r.stage == "check"]
        assert record.disposition == "tier-fallback"
        assert not failures.has_degradation
        assert any(
            reason.startswith("fault:")
            for reason in faulted.residue_reasons
        )

    def test_whole_tier_crash_falls_back_to_full(
        self, figure3_program, monkeypatch
    ):
        def boom(self, methods, failures=None):
            raise RuntimeError("tier-1 exploded")

        monkeypatch.setattr(bitvector.BitVectorChecker, "partition", boom)
        failures = FailureReport()
        run = run_check(figure3_program, tier="auto", failures=failures)
        assert run.residue_reasons == {
            "tier1-crash": run.tier2_methods
        }
        assert fmt(run.warnings) == fmt(
            run_check(figure3_program, tier="full").warnings
        )
        (record,) = list(failures)
        assert record.disposition == "tier-fallback"

    def test_pipeline_check_fault_ledgered(self):
        install_fault_plan(
            [FaultSpec(stage="check", key="", kind="raise", count=1)]
        )
        pipeline = AnekPipeline()
        result = pipeline.run_on_sources(
            [ITERATOR_API_SOURCE, FIGURE3_CLIENT_SOURCE()]
        )
        clear_fault_plan()
        clean = AnekPipeline().run_on_sources(
            [ITERATOR_API_SOURCE, FIGURE3_CLIENT_SOURCE()]
        )
        assert fmt(result.warnings) == fmt(clean.warnings)
        check_records = [r for r in result.failures if r.stage == "check"]
        assert check_records
        assert all(r.disposition == "tier-fallback" for r in check_records)
        assert not result.failures.has_degradation


    def test_check_fault_on_a_warm_cache(self, tmp_path):
        """The ``check`` fault fires before the verdict lookup, so with
        every verdict stored it still moves its method, and only that
        method, to tier 2; a fault verdict is never stored, so the next
        clean run plans that method again and stores its real verdict."""
        from repro.cache import AnalysisCache

        sources = [ITERATOR_API_SOURCE, FIGURE3_CLIENT_SOURCE()]

        def run(cache_dir, fault=False):
            install_fault_plan(
                [FaultSpec(stage="check", key="Row.countRow#", kind="raise",
                           count=1)]
                if fault
                else []
            )
            try:
                return AnekPipeline(
                    cache=AnalysisCache(tmp_path / cache_dir)
                ).run_on_sources(sources)
            finally:
                clear_fault_plan()

        def split(result):
            return (
                result.check.tier1_methods,
                result.check.tier2_methods,
                result.check.residue_reasons,
            )

        clean = run("warm")
        methods = clean.check.tier1_methods + clean.check.tier2_methods
        assert clean.cache_stats.verdict_misses == methods
        tier1, tier2, reasons = split(clean)
        faulted_split = (
            tier1 - 1, tier2 + 1, dict(reasons, **{"fault:InjectedFault": 1})
        )

        faulted = run("warm", fault=True)
        (record,) = [r for r in faulted.failures if r.stage == "check"]
        assert record.key == "Row.countRow#4"
        assert record.disposition == "tier-fallback"
        assert not faulted.failures.has_degradation
        assert split(faulted) == faulted_split
        assert fmt(faulted.warnings) == fmt(clean.warnings)
        assert faulted.cache_stats.verdict_hits == methods - 1
        assert faulted.cache_stats.verdict_misses == 0

        # A cold fill with the fault stores every verdict but the
        # faulted method's; the next clean run plans exactly that one.
        assert split(run("cold", fault=True)) == faulted_split
        refilled = run("cold")
        assert refilled.cache_stats.verdict_misses == 1
        assert refilled.cache_stats.verdict_hits == methods - 1
        rerun = run("cold")
        assert rerun.cache_stats.verdict_misses == 0
        assert split(refilled) == split(rerun) == split(clean)


def FIGURE3_CLIENT_SOURCE():
    from repro.corpus.examples import FIGURE3_CLIENT

    return FIGURE3_CLIENT


# ---------------------------------------------------------------------------
# CLI and serve knobs
# ---------------------------------------------------------------------------

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


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


class TestCliTiering:
    def test_check_stats_line(self, demo_file):
        code, output = run_cli(["check", demo_file, "--check-stats"])
        assert "check: tier=auto" in output
        _, plain = run_cli(["check", demo_file])
        assert "check: tier=" not in plain

    def test_infer_cache_stats_reports_tier_split(self, demo_file, tmp_path):
        code, output = run_cli(
            [
                "infer", demo_file, "--cache-stats",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert "warm start" not in output  # a cold run checks every tier
        assert "check: tier=auto" in output


class TestServeProtocolTier:
    def test_unknown_check_tier_rejected(self):
        from repro.serve.protocol import ProtocolError, normalize_request

        with pytest.raises(
            ProtocolError, match=r"unknown request field\(s\): check_tier"
        ):
            normalize_request(
                {
                    "op": "check",
                    "sources": ["class A {}"],
                    "check_tier": "turbo",
                }
            )
