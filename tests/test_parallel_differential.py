"""Differential harness for the parallel ANEK-INFER backends.

The level-synchronous scheduler (``repro.core.parallel``) promises that
its two executors — ``serial`` and ``process`` — are observationally
identical: same schedule, same work counters, same boundary marginals
(bit-for-bit, asserted here within 1e-9), and therefore the same
thresholded specs.  This suite locks that guarantee in across the whole
example corpus, because the scheduler touches the numeric path of the
flagship algorithm.
"""

import pytest

from repro.core.extract import extract_program_specs
from repro.core.infer import AnekInference, InferenceSettings
from repro.corpus.examples import figure3_sources, figure5_sources
from repro.corpus.generator import generate_branchy_program
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.corpus.stream_api import stream_sources
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import method_key, resolve_program

TOLERANCE = 1e-9

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

STREAM_FACTORY_CLIENT = """
class LogManager {
    @Perm("share")
    FileSystem fs;
    Stream createLogStream() {
        return fs.open("app.log");
    }
    int tail() {
        int total = 0;
        Stream s = createLogStream();
        while (s.ready()) { total = total + s.read(); }
        s.close();
        return total;
    }
}
"""

#: name -> list of sources.  Every entry runs under both executors.
CORPUS = {
    "figure3": figure3_sources(),
    "figure5": figure5_sources(),
    "quickstart": [ITERATOR_API_SOURCE, QUICKSTART_CLIENT],
    "stream_factory": stream_sources(STREAM_FACTORY_CLIENT),
    "branchy8": [ITERATOR_API_SOURCE, generate_branchy_program(8)],
}


def run_inference(sources, executor, jobs=2, engine="compiled"):
    """Run one executor over a fresh program; return comparable data."""
    program = resolve_program(
        [parse_compilation_unit(source) for source in sources]
    )
    inference = AnekInference(
        program,
        settings=InferenceSettings(executor=executor, jobs=jobs, engine=engine),
    )
    marginals = inference.run()
    keyed = {}
    for ref, boundary in marginals.items():
        keyed[method_key(ref)] = {
            slot_target: marginal.to_payload()
            for slot_target, marginal in boundary.items()
        }
    specs = extract_program_specs(
        program,
        marginals,
        inference.spec_env,
        threshold=inference.settings.threshold,
    )
    rendered = {
        method_key(ref): repr(spec.to_annotations())
        for ref, spec in specs.items()
        if not spec.is_empty
    }
    return {
        "marginals": keyed,
        "specs": rendered,
        "stats": inference.stats,
    }


def max_marginal_delta(left, right):
    """Largest absolute probability difference between two marginal maps."""
    worst = 0.0
    for key in left:
        for slot_target in left[key]:
            for dist_a, dist_b in zip(
                left[key][slot_target], right[key][slot_target]
            ):
                if dist_a is None and dist_b is None:
                    continue
                assert dist_a is not None and dist_b is not None
                assert set(dist_a) == set(dist_b)
                for value in dist_a:
                    worst = max(worst, abs(dist_a[value] - dist_b[value]))
    return worst


@pytest.fixture(scope="module")
def executor_runs():
    """All corpus entries solved under both scheduled executors."""
    runs = {}
    for name, sources in CORPUS.items():
        runs[name] = {
            executor: run_inference(sources, executor)
            for executor in ("serial", "process")
        }
    return runs


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("executor", ["process"])
class TestExecutorEquivalence:
    def test_same_method_coverage(self, executor_runs, name, executor):
        serial = executor_runs[name]["serial"]
        other = executor_runs[name][executor]
        assert set(serial["marginals"]) == set(other["marginals"])
        for key in serial["marginals"]:
            assert set(serial["marginals"][key]) == set(
                other["marginals"][key]
            )

    def test_marginals_within_tolerance(self, executor_runs, name, executor):
        serial = executor_runs[name]["serial"]
        other = executor_runs[name][executor]
        delta = max_marginal_delta(serial["marginals"], other["marginals"])
        assert delta <= TOLERANCE, (
            "%s diverged from serial on %s by %.3g" % (executor, name, delta)
        )

    def test_identical_thresholded_specs(self, executor_runs, name, executor):
        serial = executor_runs[name]["serial"]
        other = executor_runs[name][executor]
        assert serial["specs"] == other["specs"]

    def test_identical_schedule_shape(self, executor_runs, name, executor):
        serial = executor_runs[name]["serial"]["stats"]
        other = executor_runs[name][executor]["stats"]
        assert other.executor == executor
        assert other.work_counters() == serial.work_counters()
        assert other.sccs == serial.sccs
        assert [
            (entry["round"], entry["level"], entry["methods"])
            for entry in other.schedule
        ] == [
            (entry["round"], entry["level"], entry["methods"])
            for entry in serial.schedule
        ]


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestEngineDifferential:
    """The compiled flat-array kernel against the loopy reference.

    The executor fixtures above already run everything through the
    compiled engine (the default); here the loopy engine solves the same
    corpus and both the marginals (bit for bit) and the thresholded specs
    must agree.
    """

    def test_loopy_matches_compiled_marginals(self, executor_runs, name):
        compiled = executor_runs[name]["serial"]
        loopy = run_inference(CORPUS[name], "serial", engine="loopy")
        delta = max_marginal_delta(compiled["marginals"], loopy["marginals"])
        assert delta == 0, (
            "engines diverged on %s by %.3g" % (name, delta)
        )
        assert compiled["specs"] == loopy["specs"]

    def test_worklist_engines_agree(self, name):
        compiled = run_inference(CORPUS[name], "worklist")
        loopy = run_inference(CORPUS[name], "worklist", engine="loopy")
        delta = max_marginal_delta(compiled["marginals"], loopy["marginals"])
        assert delta == 0
        assert compiled["specs"] == loopy["specs"]
        assert compiled["stats"].engine == "compiled"
        assert loopy["stats"].engine == "loopy"


class TestSchedulerProperties:
    def test_worklist_and_serial_agree_on_figure3_specs(self):
        """On the running example the two engines reach the same specs
        (marginals may differ — the schedules are different)."""
        worklist = run_inference(CORPUS["figure3"], "worklist")
        serial = run_inference(CORPUS["figure3"], "serial")
        assert worklist["specs"] == serial["specs"]

    def test_levels_respect_call_dependencies(self):
        """A caller is never scheduled in an earlier level than a callee
        outside its own SCC."""
        from repro.analysis.callgraph import (
            build_call_graph,
            condensation_levels,
            dependency_edges,
            strongly_connected_components,
        )

        program = resolve_program(
            [parse_compilation_unit(s) for s in CORPUS["figure3"]]
        )
        methods = list(program.methods_with_bodies())
        graph = build_call_graph(program)
        levels, scc_count = condensation_levels(graph, methods)
        level_of = {
            ref: index for index, level in enumerate(levels) for ref in level
        }
        assert sorted(level_of, key=id) == sorted(methods, key=id)
        edges = dependency_edges(graph, methods)
        components = strongly_connected_components(edges)
        component_of = {}
        for index, component in enumerate(components):
            for ref in component:
                component_of[ref] = index
        assert len(components) == scc_count
        for caller, callees in edges.items():
            for callee in callees:
                if component_of[caller] == component_of[callee]:
                    assert level_of[caller] == level_of[callee]
                else:
                    assert level_of[caller] > level_of[callee]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            InferenceSettings(executor="gpu")

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            InferenceSettings(jobs=-1)

    def test_process_falls_back_to_serial_on_unpicklable_config(self):
        from repro.core.heuristics import CustomHeuristic, HeuristicConfig

        config = HeuristicConfig(
            custom=(
                CustomHeuristic(
                    "H-lambda",
                    lambda pfg, node: False,
                    lambda kind: False,
                ),
            )
        )
        program = resolve_program(
            [parse_compilation_unit(s) for s in CORPUS["figure5"]]
        )
        inference = AnekInference(
            program,
            config=config,
            settings=InferenceSettings(executor="process", jobs=2),
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            inference.run()
        assert inference.stats.executor == "serial"
