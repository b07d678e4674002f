"""Run one benchmark workload for one seed and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-cold --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run, whose first
ops run with every layer entry point wrapped (see ``trace.py``).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}

Human-readable lines before it give the environment stamp, the op
count, each op kind's count and mean latency, the guarded latency
percentiles, the speed probe's median with the as-measured p50 and
set-up median, and every ratio with its base.
The full record (and, for traced runs, every span) is written under
``.perfbench-out/`` in the working directory.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".perfbench-out"
REFERENCE_FILE = os.path.join(ROOT, "perfbench", "reference", "batch-cold.json")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("methods_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

#: Latency percentiles reported per workload; p50 is also a metric.  A
#: percentile needs ``MIN_BEYOND`` samples beyond it, or the run fails.
PERCENTILES = {"batch-cold": (50,), "edit-warm": (50, 90), "serve-ide": (50, 90)}

#: (metric, unit, span name) for per-layer span totals: a count metric is
#: the span's calls, a seconds metric its self seconds.
SPAN_METRICS = (
    ("java.lex.s", "s", "java.lex"),
    ("java.parse.s", "s", "java.parse"),
    ("java.parse.units", "count", "java.parse"),
    ("java.resolve.s", "s", "java.resolve"),
    ("analysis.lower.calls", "count", "analysis.lower"),
    ("analysis.lower.s", "s", "analysis.lower"),
    ("analysis.cfg.calls", "count", "analysis.cfg"),
    ("analysis.cfg.s", "s", "analysis.cfg"),
    ("analysis.callgraph.s", "s", "analysis.callgraph"),
    ("core.pfg.builds", "count", "core.pfg"),
    ("core.pfg.s", "s", "core.pfg"),
    ("core.model.visits", "count", "core.model.visit"),
    ("core.model.builds", "count", "core.model.build"),
    ("core.model.build_s", "s", "core.model.build"),
    ("factorgraph.kernel_s", "s", "factorgraph.kernel"),
    ("core.infer.s", "s", "core.infer"),
    ("core.extract.s", "s", "core.extract"),
    ("core.apply.s", "s", "core.apply"),
    ("plural.tier1.s", "s", "plural.tier1"),
    ("plural.tier2.methods", "count", "plural.tier2"),
    ("plural.tier2.s", "s", "plural.tier2"),
    ("cache.loads", "count", "cache.load"),
    ("cache.load_s", "s", "cache.load"),
    ("cache.saves", "count", "cache.save"),
    ("cache.save_s", "s", "cache.save"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch-cold", "edit-warm", "serve-ide"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def busy_seconds(ops):
    """Seconds during which at least one op was in flight."""
    total = 0.0
    current_start = current_end = None
    for op in sorted(ops, key=lambda op: op["start"]):
        if current_end is None or op["start"] > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = op["start"], op["end"]
        else:
            current_end = max(current_end, op["end"])
    if current_end is not None:
        total += current_end - current_start
    return total


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(workload, lines):
    """Every timing in reference seconds (see ``SpeedProbe``), as a median
    over the run's ops or set-ups, so neither the machine's speed nor a
    slow stretch of it that holds for a minority of them sets the figure."""
    from perfbench.workloads import MIN_BEYOND, PROBE_REFERENCE_S

    ops = workload.ops
    probe = workload.probe
    ok_ops = [op for op in ops if op["ok"]]
    busy = busy_seconds(ops)
    scaled = [probe.scaled(op["start"], op["end"]) for op in ops]
    # A failed op misses every latency limit.
    latencies = [
        value if op["ok"] else math.inf for op, value in zip(ops, scaled)
    ]
    percentiles = {}
    for pct in PERCENTILES[workload.name]:
        value, beyond = percentile(latencies, pct)
        if beyond < MIN_BEYOND:
            raise SystemExit(
                "%s: p%d needs %d samples beyond it; %d ops give %d"
                % (workload.name, pct, MIN_BEYOND, len(ops), beyond)
            )
        percentiles[pct] = value
        lines.append(
            "latency_p%d_s %.6f s (%d ops, %d beyond)"
            % (pct, value, len(ops), beyond)
        )
    setups = [end - start for start, end in workload.setups]
    values = {
        "setup_s": statistics.median(
            probe.scaled(start, end) for start, end in workload.setups
        ),
        "latency_p50_s": percentiles[50],
        "methods_per_s": statistics.median(
            op["methods"] / value
            for op, value in zip(ops, scaled) if op["ok"]
        ) if ok_ops else 0.0,
        "peak_rss_mb": workload.peak_rss_mb,
        "ok_ratio": len(ok_ops) / len(ops),
    }
    lines.append(
        "probe: %d samples, median %.6f s, reference %.6f s; as measured, "
        "latency p50 %.6f s and setup median %.6f s"
        % (len(probe.seconds), statistics.median(probe.seconds),
           PROBE_REFERENCE_S, percentile([op["latency"] for op in ops], 50)[0],
           statistics.median(setups))
    )
    lines.append(
        "setup: %d repeats, median %.6f s" % (len(setups), values["setup_s"])
    )
    lines.append(
        "methods_per_s %.2f = median over %d ok ops of methods / latency"
        % (values["methods_per_s"], len(ok_ops))
    )
    lines.append(
        "%s %.4f 1/s = %d ops / %.3f busy s, as measured" % (
            "throughput_rps" if workload.name == "serve-ide"
            else "throughput_ops_s",
            ratio(len(ops), busy), len(ops), busy,
        )
    )
    kinds = sorted({op["kind"] for op in ops if "kind" in op})
    for kind in kinds:
        mine = [value for op, value in zip(ops, scaled) if op.get("kind") == kind]
        lines.append(
            "kind %s: %d ops, mean latency %.6f s"
            % (kind, len(mine), statistics.fmean(mine))
        )
    return {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
    }


def per_layer_metrics(workload, lines):
    from perfbench.workloads import BATCH_PROGRAMS

    tracer = workload.tracer
    totals = tracer.layer_totals()
    traced = [op for op in workload.ops if op["traced"]]
    # The same ops untraced: later ops on the same programs for
    # batch-cold (whole rounds over its programs, which the traced ops
    # also cover), an untraced replay of the traced ops otherwise.
    untraced = workload.untraced_replay
    if untraced is None:
        untraced = [op for op in workload.ops if not op["traced"]]
        untraced = untraced[: len(untraced) // BATCH_PROGRAMS * BATCH_PROGRAMS]
    if len(traced) < workload.trace_ops() * (
        2 if workload.name == "serve-ide" else 1
    ):
        raise SystemExit(
            "%s: only %d ops ran traced" % (workload.name, len(traced))
        )
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, unit, span in SPAN_METRICS:
        calls, self_seconds = totals.get(span, (0, 0.0))
        put(name, self_seconds if unit == "s" else calls, unit)
    counts = {}
    for (op, name), amount in tracer.counts.items():
        counts[name] = counts.get(name, 0) + amount
    methods = sum(op["methods"] for op in traced)
    lex_s = metrics["java.lex.s"]["value"]
    put("java.lex.tokens", counts.get("java.lex.tokens", 0), "count")
    put("java.lex.tokens_per_s",
        ratio(counts.get("java.lex.tokens", 0), lex_s), "1/s")
    put("analysis.lower.per_method",
        ratio(metrics["analysis.lower.calls"]["value"], methods), "ratio")
    put("core.model.skip_ratio",
        ratio(counts.get("core.model.skips", 0),
              metrics["core.model.visits"]["value"]), "ratio")
    put("factorgraph.sweeps", counts.get("factorgraph.sweeps", 0), "count")
    updates = sum(
        totals.get(span, [0])[0]
        for span in ("core.summary.update", "core.summary.deposit")
    )
    put("core.summary.updates", updates, "count")
    put("core.summary.changed_ratio",
        ratio(counts.get("core.summary.changed", 0), updates), "ratio")
    put("core.summary.s", sum(
        totals.get(span, [0, 0.0])[1]
        for span in ("core.summary.update", "core.summary.deposit")
    ), "s")
    put("plural.tier1.methods", counts.get("plural.tier1.methods", 0), "count")
    put("plural.tier1.coverage",
        ratio(counts.get("plural.tier1.proven", 0),
              counts.get("plural.tier1.methods", 0)), "ratio")
    put("cache.hit_ratio",
        ratio(counts.get("cache.load_hits", 0),
              metrics["cache.loads"]["value"]), "ratio")
    served = [op for op in traced if "in_server" in op]
    put("serve.requests", len(served), "count")
    put("serve.queue_wait_s", ratio(
        sum(op["in_server"] - op["execute"] for op in served), len(served)
    ), "s")
    put("serve.execute_s", ratio(
        sum(op["execute"] for op in served), len(served)), "s")
    put("serve.transport_s", ratio(
        sum(op["latency"] - op["in_server"] for op in served), len(served)
    ), "s")
    put("serve.batch_size", ratio(
        sum(op["batch_size"] for op in served), len(served)), "count")
    put("serve.coalesced", sum(op["coalesced"] for op in served), "count")
    put("resilience.failures", sum(op["failures"] for op in traced), "count")
    # Both sides in reference seconds, so a change of the machine's
    # speed between the traced ops and the untraced ones does not count.
    probe = workload.probe
    traced_mean = statistics.fmean(
        probe.scaled(op["start"], op["end"]) for op in traced
    )
    untraced_mean = (
        statistics.fmean(probe.scaled(op["start"], op["end"]) for op in untraced)
        if untraced else traced_mean
    )
    put("trace.ops", len(traced), "count")
    put("trace.methods", methods, "count")
    put("trace.spans", len(tracer.spans), "count")
    put("trace.overhead_s", traced_mean - untraced_mean, "s")
    put("trace.overhead_ratio",
        ratio(traced_mean - untraced_mean, untraced_mean), "ratio")
    lines.extend([
        "traced ops %d (mean %.4f s), the same ops untraced %d "
        "(mean %.4f s): tracing overhead %+.4f s per op (%+.1f%%), "
        "in reference seconds"
        % (len(traced), traced_mean, len(untraced), untraced_mean,
           traced_mean - untraced_mean,
           100 * metrics["trace.overhead_ratio"]["value"]),
        "analysis.lower.per_method %.3f = %d lowerings / %d methods"
        % (metrics["analysis.lower.per_method"]["value"],
           metrics["analysis.lower.calls"]["value"], methods),
        "core.model.skip_ratio %.3f = %d skips / %d visits"
        % (metrics["core.model.skip_ratio"]["value"],
           counts.get("core.model.skips", 0),
           metrics["core.model.visits"]["value"]),
        "core.summary.changed_ratio %.3f = %d changed / %d updates"
        % (metrics["core.summary.changed_ratio"]["value"],
           counts.get("core.summary.changed", 0), updates),
        "plural.tier1.coverage %.3f = %d proven / %d methods"
        % (metrics["plural.tier1.coverage"]["value"],
           counts.get("plural.tier1.proven", 0),
           counts.get("plural.tier1.methods", 0)),
        "cache.hit_ratio %.3f = %d hits / %d loads"
        % (metrics["cache.hit_ratio"]["value"],
           counts.get("cache.load_hits", 0), metrics["cache.loads"]["value"]),
        "java.lex.tokens_per_s %.0f = %d tokens / %.4f s"
        % (metrics["java.lex.tokens_per_s"]["value"],
           metrics["java.lex.tokens"]["value"], lex_s),
    ])
    return metrics


def work_problems(workload):
    """Ways the traced run's work counts failed to repeat, if any."""
    from perfbench.workloads import BATCH_PROGRAMS

    problems = []
    work = workload.tracer.work()
    if workload.name == "batch-cold":
        # The traced ops analyse each program twice: the second analysis
        # must repeat the first one's work.
        for op in range(BATCH_PROGRAMS, workload.trace_ops()):
            if work.get(op) != work.get(op - BATCH_PROGRAMS):
                problems.append(
                    "op %d work differs from op %d" % (op, op - BATCH_PROGRAMS)
                )
        for name in ("cache.load.calls", "cache.save.calls"):
            calls = sum(counts.get(name, 0) for counts in work.values())
            if calls:
                problems.append("%d %s on a cache-less run" % (calls, name))
    else:
        replay = workload.replay_tracer.work()
        for op in sorted(set(work) | set(replay), key=repr):
            first, second = work.get(op, {}), replay.get(op, {})
            for name in sorted(set(first) | set(second)):
                if first.get(name, 0) != second.get(name, 0):
                    problems.append(
                        "op %r %s: %s then %s"
                        % (op, name, first.get(name, 0), second.get(name, 0))
                    )
    return problems


def git_sha():
    """The checked-out commit, or ``unavailable`` outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over every ``src/repro`` Python file, path-sorted."""
    digest = hashlib.sha256()
    base = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(args):
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def expected_batch_digests(seed, workloads):
    """The committed batch-cold answer of each program for ``seed``, or
    None."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        reference = json.load(handle)
    if (
        reference["scale"] != workloads.BATCH_SCALE
        or reference["call_density"] != workloads.CALL_DENSITY
        or reference["programs"] != workloads.BATCH_PROGRAMS
    ):
        return None
    return reference["answer_sha256"].get(str(seed))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro beside %s; nothing to measure" % ROOT,
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(OUT_DIR, "tmp"))
    try:
        kind = workloads.WORKLOADS[args.workload]
        options = {}
        if kind is workloads.BatchCold:
            options["expected_digests"] = expected_batch_digests(
                args.seed, workloads
            )
        workload = kind(args.seed, args.seconds, bool(args.trace), scratch,
                        **options)
        workload.run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stamp = environment(args)
    lines = ["perfbench %s" % " ".join(
        "%s=%s" % (key, stamp[key])
        for key in ("workload", "seed", "seconds", "trace", "cores",
                    "python", "numpy", "git_sha")
    )]
    ops = workload.ops
    failed = sum(1 for op in ops if not op["ok"])
    lines.append(
        "ops %d attempted, %d failed; %d checked against a reference "
        "(%d matched)"
        % (len(ops), failed, len(workload.references),
           sum(1 for _, matched in workload.references if matched))
    )
    if not ops:
        raise SystemExit("%s: no op completed" % args.workload)
    problems = []
    if not workload.references:
        problems.append("no op was checked against a reference")
    if args.trace:
        metrics = per_layer_metrics(workload, lines)
        problems.extend(work_problems(workload))
        spans_path = os.path.join(
            OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed)
        )
        workload.tracer.dump(spans_path)
        lines.append("spans written to %s" % spans_path)
    else:
        metrics = end_to_end_metrics(workload, lines)
    lines.extend("problem: %s" % problem for problem in problems)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    record_path = os.path.join(
        OUT_DIR, "result-%s-seed%d-trace%d.json"
        % (args.workload, args.seed, args.trace)
    )
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"environment": stamp, "notes": workload.notes,
             "report": lines, "result": result,
             "setup_seconds": [end - start for start, end in workload.setups],
             "probe_seconds": workload.probe.seconds,
             "op_latencies": [op["latency"] for op in ops]},
            handle, indent=1, sort_keys=True,
        )
    for line in lines:
        print(line)
    for name, metric in metrics.items():
        print("  %-28s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
