"""Outside-in span tracer for the benchmark.

The benchmark times each layer by wrapping that layer's public entry
points from the outside: every ``repro.*`` module attribute (and class
attribute) that holds an entry point is rebound to a wrapper that
records a span.  No file under ``src/`` knows it is being traced.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span on the same thread (-1 for a root) and ``op`` is the
benchmark op the thread was working on.  Each thread keeps its own span
stack, so spans from serve worker threads nest under their own request,
never under a span of another thread.  Spans stay in memory until the
run ends and :meth:`Tracer.dump` writes them out.

Besides timing, a few wrappers count work from the entry point's
return value (tokens produced, BP sweeps run, cache loads that hit,
summary updates that changed, tier-1 methods proven).  Those
counts depend only on the program's input, so two traced runs of one
seed must give identical counts.
"""

import functools
import itertools
import json
import sys
import threading
import time

#: Entry points to wrap: (span name, module, attribute path).  A dotted
#: attribute path names a method, which is rebound on its class; a plain
#: name is rebound in every ``repro.*`` module that holds the function,
#: including modules that imported it by name.
ENTRY_POINTS = (
    ("java.lex", "repro.java.lexer", "tokenize"),
    ("java.parse", "repro.java.parser", "parse_compilation_unit"),
    ("java.resolve", "repro.java.symbols", "resolve_program"),
    ("analysis.lower", "repro.analysis.ir", "lower_method"),
    ("analysis.cfg", "repro.analysis.cfg", "build_cfg"),
    ("analysis.callgraph", "repro.analysis.callgraph", "method_call_targets"),
    ("analysis.callgraph", "repro.analysis.callgraph", "build_call_graph"),
    ("core.pfg", "repro.core.pfg_builder", "build_pfg"),
    ("core.model.visit", "repro.core.model", "ModelCache.solve"),
    ("core.model.build", "repro.core.model", "MethodModel.build"),
    ("factorgraph.kernel", "repro.factorgraph.compiled", "CompiledGraph.run"),
    ("core.summary.update", "repro.core.summaries", "SummaryStore.update"),
    ("core.summary.deposit", "repro.core.summaries",
     "SummaryStore.deposit_evidence"),
    ("core.infer", "repro.core.infer", "AnekInference.run"),
    ("core.extract", "repro.core.extract", "extract_program_specs"),
    ("core.apply", "repro.core.applier", "apply_specs"),
    ("core.apply", "repro.core.applier", "render_annotated_sources"),
    ("plural.tier1", "repro.plural.bitvector", "BitVectorChecker.partition"),
    ("plural.tier2", "repro.plural.checker", "PluralChecker.check_method"),
    ("cache.load", "repro.cache.store", "ArtifactStore.load"),
    ("cache.save", "repro.cache.store", "ArtifactStore.save"),
)


def _tokens(result):
    return len(result)


def _sweeps(result):
    return result.iterations


def _hit(result):
    return 0 if result is None else 1


def _changed(result):
    return 1 if result else 0


def _proven(result):
    return len(result.proven)


def _skipped(result):
    return 1 if result.skipped else 0


def _partitioned(result):
    return len(result.proven) + len(result.residue)


#: Span name -> ((counter name, function of the call's result), ...).
COUNTERS = {
    "java.lex": (("java.lex.tokens", _tokens),),
    "factorgraph.kernel": (("factorgraph.sweeps", _sweeps),),
    "cache.load": (("cache.load_hits", _hit),),
    "core.summary.update": (("core.summary.changed", _changed),),
    "core.summary.deposit": (("core.summary.changed", _changed),),
    "plural.tier1": (
        ("plural.tier1.proven", _proven),
        ("plural.tier1.methods", _partitioned),
    ),
    "core.model.visit": (("core.model.skips", _skipped),),
}


class Tracer:
    """Spans and counters of one traced run.

    Wrappers take no lock: each keeps its finished spans in its own dict
    keyed by a global span id, and counters go to per-thread dicts.
    Both are merged when the trace is read.
    """

    def __init__(self):
        #: Maps a raw op id to the id the benchmark reports (the serve
        #: workload learns which server request belongs to which op only
        #: from the responses).
        self.op_alias = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._recorded = []  # one {span id: span} dict per wrapper
        self._thread_counts = []
        self._patches = []

    def set_op(self, op):
        """Attribute the calling thread's next spans to benchmark op ``op``."""
        self._local.op = op

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counts = {}
            local.op = getattr(local, "op", None)
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def wrap(self, name, function):
        counters = COUNTERS.get(name, ())
        perf = time.perf_counter
        ids = self._ids
        recorded = {}
        self._recorded.append(recorded)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            local = self._state()
            stack = local.stack
            parent = stack[-1] if stack else -1
            op = local.op
            span_id = next(ids)
            stack.append(span_id)
            start = perf()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                recorded[span_id] = (name, start, end, parent, op)
            for counter, measure in counters:
                key = (op, counter)
                local.counts[key] = local.counts.get(key, 0) + measure(result)
            return result

        return traced

    # -- installing the wrappers ----------------------------------------------

    def install(self):
        """Rebind every entry point; :meth:`uninstall` restores them."""
        for name, module_name, attribute in ENTRY_POINTS:
            __import__(module_name)
            module = sys.modules[module_name]
            if "." in attribute:
                class_name, method_name = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method_name]
                self._patch(owner, method_name, original,
                            self.wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original)
            for holder_name, holder in list(sys.modules.items()):
                if not holder_name.startswith("repro") or holder is None:
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- reading the trace ------------------------------------------------------

    def _op(self, op):
        return self.op_alias.get(op, op)

    @property
    def spans(self):
        """Every span in start order; ``parent`` indexes this list."""
        merged = sorted(
            (span_id, span)
            for recorded in self._recorded
            for span_id, span in recorded.items()
        )
        position = {span_id: index for index, (span_id, _) in enumerate(merged)}
        return [
            (name, start, end, position.get(parent, -1), self._op(op))
            for _, (name, start, end, parent, op) in merged
        ]

    @property
    def counts(self):
        """{(op, counter name): amount} summed over threads."""
        merged = {}
        for counts in self._thread_counts:
            for (op, name), amount in list(counts.items()):
                key = (self._op(op), name)
                merged[key] = merged.get(key, 0) + amount
        return merged

    def work(self):
        """{op: {name: count}}: calls per span name plus every counter.

        These depend only on the op's input, never on timing.
        """
        per_op = {}
        for name, start, end, parent, op in self.spans:
            counts = per_op.setdefault(op, {})
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
        for (op, name), amount in self.counts.items():
            per_op.setdefault(op, {})[name] = amount
        return per_op

    def layer_totals(self):
        """{span name: [calls, self seconds]} over all spans.

        Self seconds are a span's duration minus the durations of its
        direct children; children on one thread nest strictly inside
        their parent, so their durations never overlap.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for index, (name, start, end, parent, op) in enumerate(spans):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
        return totals

    def dump(self, path):
        """Write spans (start/end relative to the first span) as JSON."""
        spans = self.spans
        origin = min((span[1] for span in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [
                        [name, round(start - origin, 9),
                         round(end - origin, 9), parent, op]
                        for name, start, end, parent, op in spans
                    ],
                    "counts": [
                        [op, name, amount]
                        for (op, name), amount in sorted(
                            self.counts.items(), key=repr
                        )
                    ],
                },
                handle,
            )
