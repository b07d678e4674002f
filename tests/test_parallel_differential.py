"""Differential harness for the two ANEK-INFER schedules and BP engines.

``tests/golden/schedules.json`` pins, for the whole example corpus, what
the sequential ``worklist`` and the level-synchronous ``serial``
schedule compute: a digest of the boundary marginals (bit for bit), the
thresholded specs, the work counters and the ``serial`` level schedule.
The engine differential checks that the loopy reference and the
compiled kernel agree bit for bit under both schedules.
"""

import hashlib
import json
import os

import pytest

from repro.core.extract import extract_program_specs
from repro.core.infer import AnekInference, InferenceSettings
from repro.corpus import CorpusSpec, generate_pmd_corpus
from repro.corpus.examples import figure3_sources, figure5_sources
from repro.corpus.generator import generate_branchy_program
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.corpus.stream_api import stream_sources
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import method_key, resolve_program

SCHEDULES_GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "schedules.json"
)

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


def run_inference(sources, executor, engine="compiled"):
    """Run one executor over a fresh program; return comparable data."""
    program = resolve_program(
        [parse_compilation_unit(source) for source in sources]
    )
    inference = AnekInference(
        program,
        settings=InferenceSettings(executor=executor, engine=engine),
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


def marginals_sha256(marginals):
    """sha256 over ``{method key: {slot_target: payload}}``, in sorted
    order; floats serialize by ``repr``, so equal digests mean
    bit-identical marginals."""
    digest = hashlib.sha256()
    for key in sorted(marginals):
        boundary = marginals[key]
        rows = [
            [list(slot_target), boundary[slot_target]]
            for slot_target in sorted(boundary, key=str)
        ]
        digest.update(json.dumps([key, rows], sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def schedule_snapshot(sources, executor):
    """The pinned outcome of one schedule on one program."""
    run = run_inference(sources, executor)
    stats = run["stats"]
    entry = {
        "marginals_sha256": marginals_sha256(run["marginals"]),
        "specs": run["specs"],
        "work_counters": stats.work_counters(),
    }
    if executor == "serial":
        entry["schedule"] = [
            [item["round"], item["level"], item["methods"]]
            for item in stats.schedule
        ]
    return entry


def test_schedules_golden(update_golden):
    """Both schedules' marginals, specs, work counters and (for
    ``serial``) level schedule, pinned exactly on the whole corpus.

    Bless intentional changes with ``--update-golden``."""
    actual = {
        name: {
            executor: schedule_snapshot(CORPUS[name], executor)
            for executor in ("worklist", "serial")
        }
        for name in sorted(CORPUS)
    }
    actual = json.loads(json.dumps(actual))
    if update_golden:
        with open(SCHEDULES_GOLDEN, "w") as handle:
            json.dump(actual, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    with open(SCHEDULES_GOLDEN) as handle:
        expected = json.load(handle)
    assert actual == expected, (
        "schedule golden mismatch; if the change is intentional, rerun "
        "with --update-golden and review the diff"
    )


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
def serial_runs():
    """Every corpus entry solved under the ``serial`` schedule."""
    return {
        name: run_inference(sources, "serial")
        for name, sources in CORPUS.items()
    }


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestEngineDifferential:
    """The compiled flat-array kernel against the loopy reference.

    The ``serial`` fixture above runs everything through the compiled
    engine (the default); here the loopy engine solves the same corpus
    and both the marginals (bit for bit) and the thresholded specs must
    agree.
    """

    def test_loopy_matches_compiled_marginals(self, serial_runs, name):
        compiled = serial_runs[name]
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


def test_engines_agree_on_pmd_corpus():
    """Under ``serial`` on a generated PMD corpus, the loopy reference
    reproduces the compiled kernel's marginals bit for bit and does the
    same work."""
    sources = generate_pmd_corpus(CorpusSpec().scaled(0.05)).all_sources()
    compiled = run_inference(sources, "serial")
    loopy = run_inference(sources, "serial", engine="loopy")
    assert compiled["marginals"] == loopy["marginals"]
    assert compiled["specs"] == loopy["specs"]
    assert (
        compiled["stats"].work_counters() == loopy["stats"].work_counters()
    )


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

    def test_level_visits_read_the_level_start_store(self, monkeypatch):
        """``serial`` visits every dirty method of a level before it merges
        any of them, so all visits of one level read the same store."""
        from repro.core.summaries import SummaryStore

        mutations = []
        seen = []

        def counting(name):
            original = getattr(SummaryStore, name)

            def wrapper(store, *args):
                mutations.append(name)
                return original(store, *args)

            return wrapper

        for name in ("update", "deposit_evidence"):
            monkeypatch.setattr(SummaryStore, name, counting(name))
        visit = AnekInference._visit

        def recording_visit(inference, ref):
            seen.append(len(mutations))
            return visit(inference, ref)

        monkeypatch.setattr(AnekInference, "_visit", recording_visit)
        stats = run_inference(CORPUS["branchy8"], "serial")["stats"]
        start = 0
        for entry in stats.schedule:
            assert len(set(seen[start:start + entry["methods"]])) == 1
            start += entry["methods"]
        assert start == len(seen) == stats.solves
        assert len(set(seen)) > 1

    def test_unknown_executor_rejected(self):
        for executor in ("gpu", "process", "thread"):
            with pytest.raises(ValueError):
                InferenceSettings(executor=executor)

    def test_removed_settings_are_rejected(self):
        for removed in ("jobs", "shards"):
            with pytest.raises(TypeError):
                InferenceSettings(**{removed: 2})
