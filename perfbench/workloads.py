"""The benchmark's three workloads: closed loops over generated inputs.

Every workload makes its inputs from the seed alone, runs one op at a
time per client until the measurement window closes, and checks answers
against references that the timed path did not produce.  See
``WORKLOADS.md`` beside this file for why each workload exists and
which layer each one stresses.

An op record is a dict with ``op`` (the op id spans carry),
``start``/``end`` (``perf_counter``), ``latency``, ``ok``, ``methods``
(methods the op analysed), ``traced``, in batch-cold ``program`` and,
in edit-warm and serve-ide, ``kind``.
"""

import bisect
import gc
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import tempfile
import threading
import time

from repro.cache import AnalysisCache
from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.generator import CorpusSpec, generate_pmd_corpus
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.plural.checker import run_check
from repro.serve.client import ServeClient
from repro.serve.server import AnekServer

from perfbench.trace import Tracer

#: ``CorpusSpec.seed`` only changes a corpus when fillers call each
#: other, so every workload sets the density ``scaled()`` uses above 1.
CALL_DENSITY = 0.12
#: batch-cold: each program is the corpus at this scale (101 methods),
#: small enough for 20+ ops per window on a slow stretch of the
#: machine, which the p50 guard needs.
BATCH_SCALE = 0.03
#: Programs per batch-cold run and projects per edit-warm run, taken in
#: turn.  One seeded program varies by about 10% from the next (median
#: latency, 10 seeds, one process); a run over several spreads less.
BATCH_PROGRAMS = 4
EDIT_PROJECTS = 4
#: edit-warm: projects small enough for 100+ edits per window.
EDIT_SCALE = 0.015
#: serve-ide: each connection's projects (about 47 methods, 580 lines),
#: small enough for 100+ requests per window.
SERVE_SCALE = 0.015
SERVE_CONNECTIONS = 2
SERVE_PROJECTS = 2
#: Request weights of one IDE connection.  They are an assumption, not
#: measured traffic: three in five of a user's actions save an edit
#: (``edit``: ``infer`` after a new edit), one in five re-opens a project
#: unchanged (``same``: a full-run warm start), one in five asks for a
#: check only (``check``, which parses without the cache).  An edit takes
#: 1.6 to 1.9 times as long as the other two, so with edits at half the
#: mix the median sat on the gap between the two groups and moved with
#: each run's drawn mix; at three in five it falls inside the edits.
#: The run prints the op count and mean latency of every kind; each
#: connection sends exactly these proportions, in a seeded order.
SERVE_MIX = (("edit", 3), ("same", 1), ("check", 1))
#: Edit kinds, taken in turn (per edit-warm project, per serve-ide
#: connection): every second edit changes the answer.
EDIT_KINDS = ("filler", "protocol")

#: Rounds of set-up before and after the timed window of an untraced
#: run; ``setup_s`` is the median of every set-up timed in them.  A
#: batch-cold round generates each program, an edit-warm round fills
#: each project's cache, a serve-ide round starts a server.  batch-cold
#: also generates one program after each op.  Spreading the repetitions
#: over the run keeps one slow stretch of the machine from setting the
#: figure.
SETUP_REPEATS = {"batch-cold": (2, 2), "edit-warm": (1, 1), "serve-ide": (2, 1)}
#: Ops traced at the start of a traced run (per connection for serve):
#: batch-cold traces each program twice.
TRACE_OPS = {"batch-cold": 2 * BATCH_PROGRAMS, "edit-warm": 20, "serve-ide": 12}
#: A checked op of each kind is drawn from that kind's first ops.
SAMPLE_WITHIN = 10
#: A latency percentile needs at least this many ops beyond it, or the
#: run fails.  batch-cold runs past its window, on a slow stretch of the
#: machine, until its p50 has them.
MIN_BEYOND = 10

#: The machine-speed probe.  The reference machine changes speed by up
#: to 2x for seconds to minutes at a time, and every timing moves with
#: it.  So a run also times a fixed loop of its own (``probe_loop``) at
#: most every ``PROBE_INTERVAL`` seconds between ops and right around
#: each set-up, and reports each timing scaled by ``PROBE_REFERENCE_S``
#: over the probe's time around it.  The loop calls nothing in
#: ``repro``, so no change to the program moves it.  The reference is
#: close to the probe's time on the reference machine's faster
#: stretches, so scaled seconds read close to measured seconds there.
PROBE_REFERENCE_S = 0.0013
PROBE_INTERVAL = 0.25
#: The median of the samples within this many seconds of a timed
#: interval scales it.
PROBE_SLACK = 0.5
#: A sample is the fastest of this many loops.
PROBE_REPEATS = 3

#: A filler method's first statement.  A filler edit rewrites its
#: constant, which changes no spec, warning or marginal.
FILLER_SITE = re.compile(r"(int a = x \+ )(\d+);")
#: The closing return of a method that drives the iterator (the loops
#: over ``it`` and ``consumeFirst``), with the line an earlier protocol
#: edit put before it, if any.
PROTOCOL_SITE = re.compile(
    r"(?m)^(?P<indent> +)(?:(?:acc|v) = (?:acc|v) \+ "
    r"(?P<call>it\.next\(\) \+ )?\d+;\n(?P=indent))?return (?P<var>acc|v);$"
)


class BenchmarkFailure(RuntimeError):
    """The run cannot produce a trustworthy result."""


def corpus_sources(seed, scale):
    """Sources (without the iterator API) of one generated project."""
    spec = CorpusSpec(seed=seed, filler_call_density=CALL_DENSITY)
    return list(generate_pmd_corpus(spec.scaled(scale)).sources)


def project_seed(seed, index):
    """Corpus seed of a run's ``index``-th program or project."""
    return seed * 100 + index


def apply_edit(sources, rng, value, kind):
    """Apply one seeded single-method edit of ``kind`` in place.

    A ``filler`` edit rewrites one filler method's constant to ``value``;
    the answer stays the same, only the annotated sources change.  A
    ``protocol`` edit toggles an unguarded ``it.next()`` before the
    closing return of one iterator-using method.  That adds or removes a
    warning (in ``consumeFirst`` also a spec, which dirties its
    callers' summaries), so the answer changes.  ``value`` is new to
    every edit, so no edit recreates an earlier source text.
    """
    pattern = FILLER_SITE if kind == "filler" else PROTOCOL_SITE
    units = [index for index, text in enumerate(sources) if pattern.search(text)]
    if not units:
        raise BenchmarkFailure("project has no site for a %s edit" % kind)
    unit = rng.choice(units)
    text = sources[unit]
    site = rng.choice(list(pattern.finditer(text)))
    if kind == "filler":
        edited = site.group(1) + "%d;" % value
    else:
        indent, var = site.group("indent"), site.group("var")
        call = "" if site.group("call") else "it.next() + "
        edited = "%s%s = %s + %s%d;\n%sreturn %s;" % (
            indent, var, var, call, value, indent, var
        )
    sources[unit] = text[: site.start()] + edited + text[site.end():]


def cold_pipeline(cache=None):
    """What ``repro infer`` runs: worklist, compiled engine, auto tier."""
    return AnekPipeline(
        settings=InferenceSettings(executor="worklist", engine="compiled"),
        cache=cache,
        check_tier="auto",
    )


def reference_result(sources):
    """The independent answer: loopy BP, full checker, no cache."""
    pipeline = AnekPipeline(
        settings=InferenceSettings(executor="worklist", engine="loopy"),
        cache=None,
        check_tier="full",
    )
    return pipeline.run_on_sources(sources)


def reference_check(sources):
    """The independent answer to a served ``check``: full checker tier."""
    program = resolve_program([parse_compilation_unit(s) for s in sources])
    warnings = [w.format() for w in run_check(program, tier="full").warnings]
    return {"warnings": warnings, "count": len(warnings)}


def result_ok(result):
    return not result.degraded and len(result.failures) == 0


def answer(result):
    """The answer an op is checked on: specs, warnings, marginals."""
    return result.canonical_json(include_marginals=True)


def annotated_digest(result):
    """sha256 of the annotated sources, which carry every edit."""
    return digest("\0".join(result.annotated_sources))


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_loop():
    """A fixed mix of interpreter work: arithmetic, dict updates, a sort."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    counts = {}
    pairs = []
    for i in range(1500):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, i))
    pairs.sort()
    return total + len(counts) + len(pairs)


class SpeedProbe:
    """Timings of :func:`probe_loop` over a run, and the scaling they give.

    Only one thread samples, so the lists need no lock.
    """

    def __init__(self):
        self.times = []  # perf_counter when each sample ended
        self.seconds = []  # each sample's fastest loop

    def sample(self):
        # A collection of the program's heap inside the loop would slow
        # it for a reason other than the machine.
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = math.inf
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                probe_loop()
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.seconds.append(best)

    def due(self):
        """Sample if ``PROBE_INTERVAL`` has passed since the last sample."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL:
            self.sample()

    def around(self, start, end):
        """Probe seconds for [start, end]: the median of the samples
        within ``PROBE_SLACK`` of it, else the nearest sample."""
        low = bisect.bisect_left(self.times, start - PROBE_SLACK)
        high = bisect.bisect_right(self.times, end + PROBE_SLACK)
        if low < high:
            return statistics.median(self.seconds[low:high])
        nearest = min(
            (index for index in (low - 1, low) if 0 <= index < len(self.times)),
            key=lambda index: min(abs(self.times[index] - start),
                                  abs(self.times[index] - end)),
        )
        return self.seconds[nearest]

    def scaled(self, start, end):
        """``end - start`` in reference seconds."""
        return (end - start) * PROBE_REFERENCE_S / self.around(start, end)


class Workload:
    """One run's state; a subclass's ``run()`` does set-up, the timed
    loop, then the answer checks."""

    name = ""

    def __init__(self, seed, seconds, trace, scratch):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        #: (start, end) of every timed set-up.
        self.setups = []
        self.probe = SpeedProbe()
        self.ops = []
        self.references = []  # (op index, matched) per checked op
        self.tracer = Tracer() if trace else None
        #: A traced run's replay of its traced ops: traced, for the work
        #: counts, and untraced, for the tracing overhead.
        self.replay_tracer = None
        self.untraced_replay = None
        self.peak_rss_mb = 0.0
        self.notes = {}

    def temp_dir(self, prefix):
        return tempfile.mkdtemp(prefix=prefix, dir=self.scratch)

    def trace_ops(self):
        return TRACE_OPS[self.name]

    def repeats(self):
        """(before, after) the timed window."""
        return (1, 0) if self.trace else SETUP_REPEATS[self.name]

    def timed_setup(self, function):
        """Time ``function()`` as one set-up, between two probe samples,
        and return its value.  The heap is collected first, so an
        earlier op's garbage is not timed here."""
        gc.collect()
        self.probe.sample()
        start = time.perf_counter()
        value = function()
        end = time.perf_counter()
        self.probe.sample()
        self.setups.append((start, end))
        return value

    def timed_op(self, tracer, index, function):
        """Time ``function()`` as op ``index``; the first ``trace_ops()``
        ops run traced when ``tracer`` is given.

        Returns (start, end, result, traced).
        """
        traced = tracer is not None and index < self.trace_ops()
        self.probe.due()
        if traced:
            if index == 0:
                tracer.install()
            tracer.set_op(index)
        start = time.perf_counter()
        result = function()
        end = time.perf_counter()
        if traced:
            tracer.set_op(None)
            if index == self.trace_ops() - 1:
                tracer.uninstall()
        return start, end, result, traced


class BatchCold(Workload):
    """Whole-program analysis with no persistent cache, one op at a time.

    Op ``i`` analyses program ``i % BATCH_PROGRAMS`` of the run.
    """

    name = "batch-cold"

    def __init__(self, seed, seconds, trace, scratch, expected_digests=None):
        super().__init__(seed, seconds, trace, scratch)
        #: sha256 of each program's canonical answer when known up front.
        self.expected_digests = expected_digests

    def generate(self, index):
        """Program ``index``'s sources, with its generation timed as set-up."""
        sources = self.timed_setup(
            lambda: corpus_sources(project_seed(self.seed, index), BATCH_SCALE)
        )
        return [ITERATOR_API_SOURCE] + sources

    def setup_round(self):
        return [self.generate(index) for index in range(BATCH_PROGRAMS)]

    def run(self):
        before, after = self.repeats()
        for _ in range(before):
            programs = self.setup_round()
        # Warm-up, untimed: the first analysis in a process pays one-off
        # import and allocation costs that later ones do not.
        cold_pipeline().run_on_sources(programs[0])
        digests = []
        loop_start = time.perf_counter()
        while True:
            # Start no op the window cannot hold, judging by the last one.
            last = self.ops[-1]["latency"] if self.ops else 0.0
            if (
                len(self.ops) >= 2 * MIN_BEYOND
                and time.perf_counter() - loop_start + last > self.seconds
            ):
                break
            index = len(self.ops)
            program = index % BATCH_PROGRAMS
            gc.collect()
            start, end, result, traced = self.timed_op(
                self.tracer, index,
                lambda: cold_pipeline().run_on_sources(programs[program]),
            )
            digests.append(digest(answer(result)))
            self.ops.append(
                {
                    "op": index,
                    "program": program,
                    "start": start,
                    "end": end,
                    "latency": end - start,
                    "ok": result_ok(result),
                    "methods": result.inference_stats.methods,
                    "traced": traced,
                    "failures": len(result.failures),
                }
            )
            del result
            if not self.trace:
                self.generate(program)
        self.probe.sample()
        if self.trace:
            self.tracer.uninstall()
        self.peak_rss_mb = peak_rss_mb()
        for _ in range(after):
            self.setup_round()
        expected = self.expected_digests
        if expected is None:
            expected = [
                digest(answer(reference_result(sources))) for sources in programs
            ]
            self.notes["reference"] = "loopy/full run of each program"
        else:
            self.notes["reference"] = "committed digests"
        for op, got in zip(self.ops, digests):
            matched = got == expected[op["program"]]
            self.references.append((op["op"], matched))
            op["ok"] = op["ok"] and matched
        self.notes["answer_sha256"] = expected


class EditWarm(Workload):
    """The IDE/CI edit loop: one new single-method edit per op, warm cache.

    The run owns ``EDIT_PROJECTS`` projects, each with its own cache; op
    ``i`` edits project ``i % EDIT_PROJECTS``.
    """

    name = "edit-warm"

    @staticmethod
    def kind(index):
        """Edit kind of op ``index``: each project's edits alternate."""
        return EDIT_KINDS[(index // EDIT_PROJECTS) % len(EDIT_KINDS)]

    def fill(self, sources):
        """Fill a fresh cache with a cold run, timed as set-up; returns
        the cache directory."""
        cache_dir = self.temp_dir("edit-cache-")
        result = self.timed_setup(
            lambda: cold_pipeline(AnalysisCache(cache_dir)).run_on_sources(sources)
        )
        if not result_ok(result):
            raise BenchmarkFailure("cold cache fill did not complete cleanly")
        return cache_dir

    def sample(self):
        """Op indices checked against a reference: two of each edit kind
        among the first ops, past each project's first edit (so the
        answer before the edit comes from an op)."""
        rng = random.Random("sample:%d" % self.seed)
        first = range(EDIT_PROJECTS, SAMPLE_WITHIN * EDIT_PROJECTS)
        return {
            index
            for kind in EDIT_KINDS
            for index in rng.sample(
                [index for index in first if self.kind(index) == kind], 2
            )
        }

    def edits(self, bases, caches, tracer, count, deadline, sample=frozenset()):
        """Run edit ops until ``deadline`` (or ``count`` ops) on copies of
        ``bases`` against the caches in ``caches``; returns op records.

        A sampled op keeps its sources, its answer and the answer before
        its edit, for the checks after the window.
        """
        rng = random.Random("edit:%d" % self.seed)
        projects = [list(base) for base in bases]
        before = {}  # op index -> answer of the project's previous op
        ops = []
        while len(ops) < count and time.perf_counter() < deadline:
            index = len(ops)
            project = index % EDIT_PROJECTS
            sources = projects[project]
            kind = self.kind(index)
            apply_edit(sources, rng, 1000 + index, kind)
            start, end, result, traced = self.timed_op(
                tracer, index,
                lambda: cold_pipeline(
                    AnalysisCache(caches[project])
                ).run_on_sources(sources),
            )
            record = {
                "op": index,
                "kind": kind,
                "start": start,
                "end": end,
                "latency": end - start,
                "ok": result_ok(result),
                "methods": result.inference_stats.methods,
                "traced": traced,
                "failures": len(result.failures),
            }
            if index in sample:
                record["sources"] = list(sources)
                record["answer"] = answer(result)
                record["annotated"] = annotated_digest(result)
                record["before"] = before.pop(index)
            if index + EDIT_PROJECTS in sample:
                before[index + EDIT_PROJECTS] = answer(result)
            ops.append(record)
            del result
        self.probe.sample()
        if tracer is not None:
            tracer.uninstall()
        return ops

    def replay(self, bases, tracer):
        """The traced ops again, on freshly filled caches."""
        caches = [self.fill(base) for base in bases]
        try:
            return self.edits(bases, caches, tracer, self.trace_ops(),
                              float("inf"))
        finally:
            for cache_dir in caches:
                shutil.rmtree(cache_dir, ignore_errors=True)

    def run(self):
        bases = [
            [ITERATOR_API_SOURCE]
            + corpus_sources(project_seed(self.seed, index), EDIT_SCALE)
            for index in range(EDIT_PROJECTS)
        ]
        before, after = self.repeats()
        for round_ in range(before):
            caches = [self.fill(base) for base in bases]
            if round_ < before - 1:
                for cache_dir in caches:
                    shutil.rmtree(cache_dir, ignore_errors=True)
        gc.collect()
        deadline = time.perf_counter() + self.seconds
        self.ops = self.edits(
            bases, caches, self.tracer, 1 << 30, deadline, self.sample()
        )
        self.peak_rss_mb = peak_rss_mb()
        for cache_dir in caches:
            shutil.rmtree(cache_dir, ignore_errors=True)
        for _ in range(after):
            for base in bases:
                shutil.rmtree(self.fill(base), ignore_errors=True)
        for op in self.ops:
            if "sources" not in op:
                continue
            reference = reference_result(op.pop("sources"))
            got, before = op.pop("answer"), op.pop("before")
            matched = (
                got == answer(reference)
                and op.pop("annotated") == annotated_digest(reference)
                # A protocol edit must change the answer: a cache that
                # replayed the pre-edit result fails here.
                and (op["kind"] != "protocol" or got != before)
            )
            self.references.append((op["op"], matched))
            op["ok"] = op["ok"] and matched
        if self.trace:
            # The traced ops' work counts must repeat exactly; the same
            # ops untraced give the tracing overhead.
            self.replay_tracer = Tracer()
            self.replay(bases, self.replay_tracer)
            self.untraced_replay = self.replay(bases, None)


class ServeIde(Workload):
    """IDE traffic: two closed-loop connections against an in-process daemon."""

    name = "serve-ide"

    #: Op kinds: a request kind, with the edit kind for ``edit``.
    KINDS = ("edit-filler", "edit-protocol", "same", "check")

    def projects(self):
        return {
            (conn, slot): corpus_sources(
                self.seed * 100 + 10 * conn + slot, SERVE_SCALE
            )
            for conn in range(SERVE_CONNECTIONS)
            for slot in range(SERVE_PROJECTS)
        }

    def sample(self):
        """{connection: {op kind: occurrence}}: one checked op per kind."""
        rng = random.Random("sample:%d" % self.seed)
        plan = {conn: {} for conn in range(SERVE_CONNECTIONS)}
        for position, kind in enumerate(self.KINDS):
            conn = (self.seed + position) % SERVE_CONNECTIONS
            plan[conn][kind] = rng.randrange(SAMPLE_WITHIN)
        return plan

    def start_server(self, projects):
        """Server start plus one warming request per project, in sequence.

        Returns (server, work directory, warm answers); the work
        directory holds the server's cache and socket.
        """
        work = self.temp_dir("serve-")
        # A relative socket path keeps AF_UNIX's ~100-byte limit away
        # from however deep the checkout sits.
        socket_path = os.path.relpath(os.path.join(work, "s.sock"))
        answers = {}

        def start():
            server = AnekServer(
                socket_path=socket_path, cache_dir=os.path.join(work, "cache")
            ).start()
            with ServeClient(socket_path) as client:
                for key in sorted(projects):
                    response = client.infer(projects[key])
                    if response.get("status") != "ok":
                        raise BenchmarkFailure(
                            "warming request failed: %s" % response.get("error")
                        )
                    answers[key] = response["result"]
            return server

        server = self.timed_setup(start)
        return server, work, answers

    @staticmethod
    def stop_server(server, work):
        server.initiate_shutdown()
        server.wait(poll=0.05)
        shutil.rmtree(work, ignore_errors=True)

    def traffic(self, server, projects, answers, tracer, per_connection,
                deadline):
        """Both connections' closed loops; returns op records.

        ``answers`` holds each project's answer after its warming
        request; a sampled edit op keeps the answer before its edit.
        """
        records = [[] for _ in range(SERVE_CONNECTIONS)]
        errors = []
        trace_ops = self.trace_ops() if tracer is not None else 0
        barrier = threading.Barrier(SERVE_CONNECTIONS + 1)
        plan = self.sample()
        if tracer is not None:
            original = server._execute

            def execute(request, live):
                tracer.set_op(("req", live[0].request_id))
                try:
                    return original(request, live)
                finally:
                    tracer.set_op(None)

            server._execute = execute
            tracer.install()

        def connection(conn):
            rng = random.Random("serve:%d:%d" % (self.seed, conn))
            # Kinds are dealt from a shuffled deck that holds each kind
            # as often as its weight, so every run sends the mix exactly.
            deck = []
            seen = dict.fromkeys(self.KINDS, 0)
            edits = 0
            mine = {
                slot: list(projects[(conn, slot)])
                for slot in range(SERVE_PROJECTS)
            }
            last = {slot: answers[(conn, slot)] for slot in range(SERVE_PROJECTS)}
            try:
                with ServeClient(server.socket_path) as client:
                    while (
                        len(records[conn]) < per_connection
                        and time.perf_counter() < deadline
                    ):
                        index = len(records[conn])
                        slot = rng.randrange(SERVE_PROJECTS)
                        if not deck:
                            deck = [
                                kind
                                for kind, weight in SERVE_MIX
                                for _ in range(weight)
                            ]
                            rng.shuffle(deck)
                        kind = deck.pop()
                        sources = mine[slot]
                        if kind == "edit":
                            edit_kind = EDIT_KINDS[edits % len(EDIT_KINDS)]
                            edits += 1
                            apply_edit(
                                sources, rng, 1000 + 100000 * conn + index,
                                edit_kind,
                            )
                            kind = "edit-" + edit_kind
                        request = {
                            "op": "check" if kind == "check" else "infer",
                            "sources": list(sources),
                        }
                        start = time.perf_counter()
                        response = client.call(request)
                        end = time.perf_counter()
                        record = serve_record(response, kind, start, end)
                        record["op"] = (conn, index)
                        record["traced"] = index < trace_ops
                        if plan[conn].get(kind) == seen[kind]:
                            record["sources"] = list(sources)
                            record["answer"] = response.get("result")
                            record["before"] = last[slot]
                        seen[kind] += 1
                        if request["op"] == "infer" and record["ok"]:
                            last[slot] = response.get("result")
                        records[conn].append(record)
                        if tracer is not None and index + 1 == trace_ops:
                            barrier.wait()  # the main thread uninstalls
                            barrier.wait()
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                if tracer is not None and len(records[conn]) < trace_ops:
                    barrier.abort()

        threads = [
            threading.Thread(target=connection, args=(conn,), daemon=True)
            for conn in range(SERVE_CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        if tracer is not None:
            try:
                barrier.wait()
                tracer.uninstall()
                barrier.wait()
            except threading.BrokenBarrierError:
                tracer.uninstall()
            server._execute = original
        # The main thread samples the probe while the connections run.
        # Each sample is the fastest of a few short loops, so a loop that
        # waited for the interpreter lock does not set it.
        for thread in threads:
            while thread.is_alive():
                self.probe.sample()
                thread.join(PROBE_INTERVAL)
        self.probe.sample()
        if errors:
            raise BenchmarkFailure("client failed: %r" % errors[0])
        if tracer is not None:
            # Map server request ids back to (connection, op index).
            ids = {
                ("req", record["id"]): record["op"]
                for conn_records in records
                for record in conn_records
                if record.get("id") is not None
            }
            tracer.op_alias.update(ids)
        return [record for conn_records in records for record in conn_records]

    def replay(self, projects, tracer):
        """The traced ops again, on a fresh server and cache."""
        server, work, answers = self.start_server(projects)
        try:
            return self.traffic(
                server, projects, answers, tracer, self.trace_ops(),
                float("inf"),
            )
        finally:
            self.stop_server(server, work)

    def run(self):
        projects = self.projects()
        before, after = self.repeats()
        servers = [self.start_server(projects) for _ in range(before)]
        for server, work, _ in servers[:-1]:
            self.stop_server(server, work)
        server, work, answers = servers[-1]
        gc.collect()
        deadline = time.perf_counter() + self.seconds
        try:
            self.ops = self.traffic(
                server, projects, answers, self.tracer, 1 << 30, deadline
            )
        finally:
            self.peak_rss_mb = peak_rss_mb()
            self.stop_server(server, work)
        for _ in range(after):
            server, work, _ = self.start_server(projects)
            self.stop_server(server, work)
        for op in self.ops:
            if "sources" not in op:
                continue
            sources = [ITERATOR_API_SOURCE] + op.pop("sources")
            got, before = op.pop("answer"), op.pop("before")
            if op["kind"] == "check":
                expected = reference_check(sources)
            else:
                expected = reference_result(sources).canonical_payload()
            matched = canonical(got) == canonical(expected) and (
                # A protocol edit must change the answer.
                op["kind"] != "edit-protocol"
                or canonical(got) != canonical(before)
            )
            self.references.append((op["op"], matched))
            op["ok"] = op["ok"] and matched
        if self.trace:
            # The traced ops' work counts must repeat exactly; the same
            # ops untraced give the tracing overhead.
            self.replay_tracer = Tracer()
            self.replay(projects, self.replay_tracer)
            self.untraced_replay = self.replay(projects, None)


def serve_record(response, kind, start, end):
    """One served op: round trip plus the daemon's own timings."""
    serve = response.get("serve") or {}
    stats = response.get("stats") or {}
    inference = stats.get("inference") or {}
    check = stats.get("check") or {}
    methods = inference.get("methods") or (
        check.get("tier1_methods", 0) + check.get("tier2_methods", 0)
    )
    failures = (stats.get("failures") or {}).get("failures") or []
    return {
        "kind": kind,
        "id": response.get("id"),
        "start": start,
        "end": end,
        "latency": end - start,
        "ok": response.get("status") == "ok" and not failures,
        "methods": methods,
        "failures": len(failures),
        # ``queue_wait_seconds`` is stamped when the response is built,
        # so it covers execution too: arrival -> response.
        "in_server": serve.get("queue_wait_seconds", 0.0),
        "execute": stats.get("elapsed_seconds", 0.0),
        "batch_size": serve.get("batch_size", 0),
        "coalesced": 1 if serve.get("coalesced_with") else 0,
    }


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


WORKLOADS = {
    workload.name: workload for workload in (BatchCold, EditWarm, ServeIde)
}
