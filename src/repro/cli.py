"""Command-line interface: the ANEK tool as a user would run it.

    python -m repro infer  FILE...    infer @Perm specs, print annotated source
    python -m repro check  FILE...    run the PLURAL checker, print warnings
    python -m repro serve  [--socket PATH | --port N]   analysis daemon
    python -m repro client OP [FILE...] --connect ADDR  query a daemon
    python -m repro pfg    FILE CLASS.METHOD   print a method's PFG (DOT)
    python -m repro table  {1,2,3,4}  regenerate a paper table
    python -m repro figure {1,4,6,10} regenerate a paper figure
    python -m repro fuzz --seed S --budget N   structured fuzzing campaign

``infer`` and ``check`` prepend the annotated Iterator API (``--no-api``
to skip it); ``infer`` takes ``--threshold``/``--max-iters`` to tune
extraction and the worklist.  ``infer`` keeps a persistent analysis
cache in ``.anek-cache/`` (``--cache-dir`` to move it, ``--no-cache`` to
disable, ``--cache-stats`` to print hit/miss counters).

The cache is also how a cached ``infer`` survives a stop or a kill:
every finished visit is stored as it completes, so running the same
command again replays those visits (``N replayed`` in the trace) and
solves on.  SIGTERM/SIGINT during the visit loop, or an RSS reading
over ``--max-rss-mb``, stop a cached run after the visit in flight;
before and after the loop the signals act at once, as without a cache.

Exit codes: 0 = clean run; 1 = ``check`` found warnings; 2 = the run
completed but quarantined/degraded some work (see ``--fail-report``);
3 = usage error (including ``--max-rss-mb`` without the cache, or a
budget the run is over before its first visit); 4 = fatal internal error
(one-line summary on stderr, full traceback with ``--debug``); 5 = a
cached run stopped between two visits — rerun the same command to
continue; 6 = ``serve --supervise`` gave up on a crash-looping daemon.
"""

import argparse
import math
import os
import sys
from contextlib import nullcontext

#: CLI exit codes (0 = clean; ``check`` uses 1 for "warnings found",
#: ``fuzz`` uses it for "sentinel violations found").
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_DEGRADED = 2
EXIT_USAGE = 3
EXIT_FATAL = 4
EXIT_INTERRUPTED = 5
#: Mirrors :data:`repro.serve.supervisor.EXIT_CRASHLOOP`.
EXIT_CRASHLOOP = 6

from repro.cache import DEFAULT_CACHE_DIR
from repro.core import AnekPipeline, InferenceSettings
from repro.core.infer import EXECUTORS
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import MethodRef, resolve_program
from repro.serve.protocol import OPS


def _read_sources(paths, include_api):
    sources = []
    if include_api:
        sources.append(ITERATOR_API_SOURCE)
    for path in paths:
        with open(path) as handle:
            sources.append(handle.read())
    return sources


def _build_limits(args):
    """Resource budgets from the ``--max-*`` governance flags, one per
    :class:`ResourceLimits` field."""
    from dataclasses import fields

    from repro.resilience.limits import ResourceLimits

    if not getattr(args, "governance", True):
        return ResourceLimits.disabled()
    overrides = {}
    for budget in fields(ResourceLimits):
        value = getattr(args, budget.name, None)
        if value is not None:
            overrides[budget.name] = value
    return ResourceLimits(**overrides)


def _build_policy(args):
    from repro.resilience.policy import ResiliencePolicy

    limits = _build_limits(args)
    if not getattr(args, "resilience", True):
        # Governance is orthogonal to the degradation ladder: budgets
        # keep protecting the process unless --no-governance too.
        return ResiliencePolicy(enabled=False, limits=limits)
    return ResiliencePolicy(
        solve_deadline=getattr(args, "solve_deadline", 0.0),
        solve_retries=getattr(args, "solve_retries", 2),
        limits=limits,
    )


def _write_fail_report(failures, args, out):
    """Print the failure ledger and honour ``--fail-report``."""
    if failures:
        print("", file=out)
        print(failures.summary_line(), file=out)
        for record in failures:
            print("  " + record.format(), file=out)
    destination = getattr(args, "fail_report", None)
    if destination:
        payload = failures.to_json()
        if destination == "-":
            print(payload, file=out)
        else:
            with open(destination, "w") as handle:
                handle.write(payload + "\n")


def _emit_fail_report(result, args, out):
    """The resilience epilogue: summary line, optional JSON report, and
    the run's exit code."""
    failures = result.failures
    _write_fail_report(failures, args, out)
    return EXIT_DEGRADED if failures.has_degradation else EXIT_OK


def cmd_infer(args, out):
    from repro.resilience.limits import MemoryBudgetError
    from repro.resilience.shutdown import RunInterrupted, graceful_shutdown

    if args.max_rss_mb and not args.use_cache:
        print(
            "repro infer: error: --max-rss-mb needs the analysis cache: a "
            "stopped run continues only by rerunning against it",
            file=sys.stderr,
        )
        return EXIT_USAGE
    settings = InferenceSettings(
        threshold=args.threshold,
        max_worklist_iters=args.max_iters,
        executor=args.executor,
        policy=_build_policy(args),
        max_rss_mb=args.max_rss_mb,
    )
    cache = None
    if args.use_cache:
        from repro.cache import AnalysisCache

        cache = AnalysisCache(cache_dir=args.cache_dir)
    pipeline = AnekPipeline(settings=settings, cache=cache)
    # Stopping between two visits only helps a run that a rerun can
    # continue from the cache, and only the visit loop waits for a
    # signal; everywhere else default handling stays.
    shutdown = graceful_shutdown() if cache is not None else nullcontext()
    try:
        with shutdown:
            result = pipeline.run_on_sources(
                _read_sources(args.files, args.api)
            )
    except RunInterrupted as exc:
        print("interrupted: %s" % exc, file=out)
        print("rerun the same command to continue", file=out)
        _write_fail_report(exc.failures, args, out)
        return EXIT_INTERRUPTED
    except MemoryBudgetError as exc:
        print("repro infer: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    print(result.describe_stages(), file=out)
    if args.cache_stats and cache is not None:
        print("", file=out)
        print(cache.stats.describe(), file=out)
    if args.cache_stats and result.check is not None:
        print("", file=out)
        print(result.check.describe(), file=out)
    print("", file=out)
    print("Inferred specifications:", file=out)
    for ref, spec in sorted(
        result.specs.items(), key=lambda kv: kv[0].qualified_name
    ):
        if spec.is_empty:
            continue
        print("  %-32s %s" % (ref.qualified_name, spec), file=out)
    print("", file=out)
    print("PLURAL warnings: %d" % len(result.warnings), file=out)
    for warning in result.warnings:
        print("  " + warning.format(), file=out)
    if args.emit_source:
        for source in result.annotated_sources:
            print("", file=out)
            print(source, file=out)
    return _emit_fail_report(result, args, out)


def cmd_serve(args, out):
    from repro.serve import AnekServer, ServeAddressInUse

    if args.socket is not None and args.port is not None:
        print(
            "repro serve: error: --socket and --port are mutually exclusive",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.supervise:
        return _cmd_serve_supervised(args, out)
    port = args.port
    if args.socket is None and port is None:
        port = 0  # loopback TCP on an ephemeral port, printed at boot
    server = AnekServer(
        socket_path=args.socket,
        port=port,
        cache_dir=args.cache_dir,
        use_cache=args.use_cache,
        workers=args.workers,
        queue_limit=args.queue_limit,
        batch_window=args.batch_window,
        batch_max=args.batch_max,
        policy=_build_policy(args),
        max_rss_mb=args.max_rss_mb,
        heartbeat_path=args.heartbeat,
        max_frame_bytes=args.max_frame_mb * 1024 * 1024,
        max_source_bytes=args.max_source_mb * 1024 * 1024,
    )
    try:
        return server.run_forever(out=out)
    except ServeAddressInUse as exc:
        print("repro serve: error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def _cmd_serve_supervised(args, out):
    """``repro serve --supervise``: run the restart loop around a child
    daemon that is this exact command line minus the supervision flags."""
    from repro.serve import ServeSupervisor, build_child_argv

    if args.socket is None and not args.port:
        # A supervised daemon must come back at the *same* address or
        # restarts would strand every reconnecting client.
        print(
            "repro serve: error: --supervise requires a fixed address "
            "(--socket PATH or --port N, N > 0)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    import tempfile

    heartbeat = args.heartbeat
    if heartbeat is None:
        heartbeat = (
            args.socket + ".heartbeat"
            if args.socket is not None
            else "%s/anek-serve-%d.heartbeat"
            % (tempfile.gettempdir(), args.port)
        )
    supervisor = ServeSupervisor(
        build_child_argv(),
        heartbeat_path=heartbeat,
        max_restarts=args.max_restarts,
        restart_window=args.restart_window,
        backoff=args.restart_backoff,
        backoff_max=args.restart_backoff_max,
        ledger_path=args.supervisor_ledger,
        out=out,
    )
    return supervisor.run()


def _print_served_infer(response, out):
    """The served twin of ``cmd_infer``'s result block: identical
    spec/warning formatting, so eyeballs and diffs agree across modes."""
    serve = response.get("serve", {})
    stats = response.get("stats", {})
    if serve.get("replayed"):
        # ``stats`` are those of the earlier run that produced the answer.
        where = "stored answer of an earlier run"
    else:
        where = "batch %s (%s coalesced)" % (
            serve.get("batch_size", "?"),
            serve.get("coalesced_with", 0),
        )
    print(
        "served: request %s, %s, %.3f s%s"
        % (
            serve.get("request_id", "?"),
            where,
            stats.get("elapsed_seconds", 0.0),
            ", warm start" if stats.get("warm_start") else "",
        ),
        file=out,
    )
    result = response["result"]
    print("", file=out)
    print("Inferred specifications:", file=out)
    for entry in result["specs"]:
        print("  %-32s %s" % (entry["name"], entry["spec"]), file=out)
    print("", file=out)
    print("PLURAL warnings: %d" % len(result["warnings"]), file=out)
    for warning in result["warnings"]:
        print("  " + warning, file=out)


def cmd_client(args, out):
    import json

    from repro.serve import ServeClient, ServeError

    request = {"op": args.op}
    if args.op in ("infer", "check"):
        if not args.files:
            print(
                "repro client: error: op %r requires files" % args.op,
                file=sys.stderr,
            )
            return EXIT_USAGE
        # Raw file contents only: the daemon prepends the annotated
        # Iterator API itself when the request's ``api`` flag is set.
        request["sources"] = _read_sources(args.files, False)
        request["api"] = args.api
        request["no_cache"] = not args.use_cache
        if args.deadline:
            request["deadline"] = args.deadline
        if args.op == "infer":
            request.update(
                threshold=args.threshold,
                max_iters=args.max_iters,
                executor=args.executor,
                include_marginals=args.marginals,
            )
    try:
        with ServeClient(
            args.connect,
            timeout=args.timeout or None,
            retries=args.retries,
            call_deadline=args.call_deadline,
        ) as client:
            response = client.call(request)
    except ServeError as exc:
        print("repro: error: %s" % exc, file=sys.stderr)
        return EXIT_FATAL
    status = response.get("status")
    if args.json:
        print(json.dumps(response, sort_keys=True, indent=2), file=out)
    elif status in ("ok", "degraded") and args.op == "infer":
        _print_served_infer(response, out)
    elif status in ("ok", "degraded") and args.op == "check":
        result = response["result"]
        for warning in result["warnings"]:
            print(warning, file=out)
        print("%d warning(s)" % result["count"], file=out)
    elif status == "ok":
        print(json.dumps(response, sort_keys=True, indent=2), file=out)
    else:
        print(
            "repro: %s: %s" % (status, response.get("error", "")),
            file=sys.stderr,
        )
    if args.op == "check" and status == "ok":
        return EXIT_OK if response["result"]["count"] == 0 else 1
    if status == "ok":
        return EXIT_OK
    if status == "degraded":
        return EXIT_DEGRADED
    if status == "invalid":
        return EXIT_USAGE
    return EXIT_FATAL


def cmd_check(args, out):
    from repro.plural.checker import run_check
    from repro.resilience.report import FailureReport

    # Parsed under isolation, as ``infer`` and a served ``check`` are: a
    # unit that breaches a budget is quarantined, not fatal.
    settings = InferenceSettings(policy=_build_policy(args))
    failures = FailureReport()
    program, _, _ = AnekPipeline(settings=settings).resolve_sources(
        _read_sources(args.files, args.api), failures
    )
    run = run_check(program, failures=failures)
    for warning in run.warnings:
        print(warning.format(), file=out)
    print("%d warning(s)" % len(run.warnings), file=out)
    if args.check_stats:
        print(run.describe(), file=out)
    _write_fail_report(failures, args, out)
    if failures.has_degradation:
        return EXIT_DEGRADED
    return 0 if not run.warnings else 1


def cmd_pfg(args, out):
    from repro.core.pfg_builder import build_pfg

    program = resolve_program(
        [
            parse_compilation_unit(source)
            for source in _read_sources(args.files, args.api)
        ]
    )
    class_name, _, method_name = args.method.partition(".")
    decl = program.lookup_class(class_name)
    if decl is None:
        print("error: unknown class %r" % class_name, file=sys.stderr)
        return EXIT_USAGE
    methods = decl.find_method(method_name)
    if not methods:
        print(
            "error: no method %r in %s" % (method_name, class_name),
            file=sys.stderr,
        )
        return EXIT_USAGE
    pfg = build_pfg(program, MethodRef(decl, methods[0]))
    if args.dot:
        print(pfg.to_dot(), file=out)
    else:
        print(pfg.describe(), file=out)
    return 0


def cmd_explain(args, out):
    from repro.core.diagnostics import explain_method

    program = resolve_program(
        [
            parse_compilation_unit(source)
            for source in _read_sources(args.files, args.api)
        ]
    )
    class_name, _, method_name = args.method.partition(".")
    decl = program.lookup_class(class_name)
    if decl is None:
        print("error: unknown class %r" % class_name, file=sys.stderr)
        return EXIT_USAGE
    methods = decl.find_method(method_name)
    if not methods:
        print(
            "error: no method %r in %s" % (method_name, class_name),
            file=sys.stderr,
        )
        return EXIT_USAGE
    diagnostics = explain_method(
        program, MethodRef(decl, methods[0]), threshold=args.threshold
    )
    print(diagnostics.render(), file=out)
    return 0


def cmd_corpus(args, out):
    import hashlib
    import json
    import os
    from dataclasses import asdict, replace

    from repro.corpus import CorpusSpec, generate_pmd_corpus

    base = CorpusSpec()
    if args.methods:
        spec = base.scaled(args.methods / float(base.methods))
        spec = replace(spec, methods=args.methods)
    else:
        spec = base.scaled(args.scale)
    spec = replace(spec, seed=args.seed)
    if args.families:
        spec = replace(spec, protocol_families=args.families)
    bundle = generate_pmd_corpus(spec)
    os.makedirs(args.out, exist_ok=True)
    files = []
    api_sources = [bundle.api_source] + list(bundle.extra_api_sources)
    for index, source in enumerate(api_sources):
        files.append(("Api%d.java" % index, source))
    for index, source in enumerate(bundle.sources):
        files.append(("Source%05d.java" % index, source))
    digest = hashlib.sha256()
    for name, source in files:
        digest.update(source.encode("utf-8"))
        with open(os.path.join(args.out, name), "w") as handle:
            handle.write(source)
    manifest = {
        "spec": asdict(spec),
        "files": [name for name, _ in files],
        "api_files": len(api_sources),
        "classes": len(bundle.sources),
        "methods": spec.methods,
        "lines": bundle.line_count(),
        "sha256": digest.hexdigest(),
    }
    with open(os.path.join(args.out, "MANIFEST.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        "corpus: %d classes, %d methods, %d lines, %d protocol family(ies)"
        % (
            len(bundle.sources),
            spec.methods,
            bundle.line_count(),
            spec.protocol_families,
        ),
        file=out,
    )
    print("wrote %d files to %s" % (len(files) + 1, args.out), file=out)
    print("sha256: %s" % manifest["sha256"], file=out)
    return 0


def cmd_table(args, out):
    from repro.corpus import CorpusSpec
    from repro.reporting.experiments import (
        PmdExperiment,
        table3_experiment,
        table5_parallel,
    )

    if args.number == 3:
        result = table3_experiment(methods=args.methods)
        print(result.table.render(), file=out)
        return 0
    if args.number == 5:
        spec = CorpusSpec() if args.full else CorpusSpec().scaled(args.scale)
        result = table5_parallel(corpus_spec=spec)
        print(result.table.render(), file=out)
        return 0
    spec = CorpusSpec() if args.full else CorpusSpec().scaled(args.scale)
    experiment = PmdExperiment(corpus_spec=spec)
    if args.number == 1:
        _, table = experiment.table1()
    elif args.number == 2:
        _, table = experiment.table2()
    else:
        _, table = experiment.table4()
    print(table.render(), file=out)
    return 0


def cmd_figure(args, out):
    from repro.reporting.experiments import (
        figure1_protocol,
        figure4_kinds,
        figure6_pfg,
        figure10_pipeline_trace,
    )

    if args.number == 1:
        print(figure1_protocol(), file=out)
    elif args.number == 4:
        print(figure4_kinds().render(), file=out)
    elif args.number == 6:
        pfg = figure6_pfg()
        print(pfg.describe(), file=out)
        print("", file=out)
        print(pfg.to_dot(), file=out)
    else:
        print(figure10_pipeline_trace(), file=out)
    return 0


def cmd_fuzz(args, out):
    from repro.fuzz import replay_regressions, run_campaign

    if args.replay:
        replays = replay_regressions(
            directory=args.regressions_dir, deadline=args.case_deadline or 60.0
        )
        bad = 0
        for path, report in replays:
            status = "ok" if report.ok else "VIOLATES"
            print("replay %s: %s" % (path, status), file=out)
            for violation in report.violations:
                print("    " + violation, file=out)
                bad += 1
        print(
            "fuzz: replayed %d regression(s), %d violation(s)"
            % (len(replays), bad),
            file=out,
        )
        return EXIT_FINDINGS if bad else EXIT_OK

    result = run_campaign(
        args.seed,
        args.budget,
        regressions_dir=args.regressions_dir,
        deadline=args.case_deadline,
        minimize=args.minimize,
        log=lambda line: print(line, file=out),
    )
    print(result.summary_line(), file=out)
    for entry in result.violations:
        print(
            "violation %s [%s]: %s (minimized %d -> %d chars)"
            % (
                entry["label"],
                entry["family"],
                "; ".join(entry["violations"]),
                entry["original_chars"],
                entry["minimized_chars"],
            ),
            file=out,
        )
    for path in result.regressions_written:
        print("wrote %s" % path, file=out)
    return EXIT_OK if result.ok else EXIT_FINDINGS


def _setting(name, parse):
    """An argparse type for the :class:`InferenceSettings` field ``name``:
    ``parse`` the text, then let the settings check it, so the CLI rejects
    exactly what serve's ``normalize_request`` rejects, with the same
    message.  Text ``parse`` refuses reaches the settings' type check."""

    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = text
        try:
            InferenceSettings(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    return convert


def _nonnegative_seconds(flag):
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected a number of seconds, got %r" % text
            )
        if not math.isfinite(value) or value < 0:
            raise argparse.ArgumentTypeError(
                "%s must be a finite number >= 0 (0 disables it)" % flag
            )
        return value

    return parse


def _nonnegative_count(flag):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected an integer, got %r" % text
            )
        if value < 0:
            raise argparse.ArgumentTypeError("%s must be >= 0" % flag)
        return value

    return parse


def _positive_count(flag):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected an integer, got %r" % text
            )
        if value < 1:
            raise argparse.ArgumentTypeError("%s must be >= 1" % flag)
        return value

    return parse


def _add_governance_flags(command):
    """The resource-governance knobs, shared by ``infer`` and ``check``.

    Defaults come from :class:`repro.resilience.limits.ResourceLimits`;
    every flag accepts 0 for "unlimited".  A breached budget quarantines
    the offending unit/method with the ``resource-limit`` disposition.
    """
    command.add_argument("--no-governance", dest="governance",
                         action="store_false",
                         help="disable all resource budgets (recursion, "
                              "token, graph-size and worklist ceilings)")
    for flag, name, what in (
        ("--max-source-chars", "max_source_chars",
         "source characters per compilation unit"),
        ("--max-tokens", "max_tokens", "tokens per compilation unit"),
        ("--max-literal-chars", "max_literal_chars",
         "characters in one string literal"),
        ("--max-parse-depth", "max_parse_depth",
         "statement/expression nesting depth"),
        ("--max-pfg-nodes", "max_pfg_nodes",
         "permission-flow-graph nodes per method"),
        ("--max-graph-factors", "max_graph_factors",
         "factor-graph nodes (factors + variables) per method"),
        ("--max-worklist-visits", "max_worklist_visits",
         "total method visits of either schedule"),
    ):
        command.add_argument(flag, metavar="N", dest=name,
                             type=_nonnegative_count(flag), default=None,
                             help="cap on %s (0 = unlimited)" % what)


#: ``--executor``'s usage text, as argparse prints a ``choices`` list.
EXECUTOR_CHOICES = "{%s}" % ",".join(EXECUTORS)


class _Parser(argparse.ArgumentParser):
    """argparse with the repo's exit-code convention: usage errors exit
    with :data:`EXIT_USAGE` instead of argparse's default 2 (which here
    means completed-with-quarantines)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="repro",
        description="ANEK: probabilistic inference of typestate specifications",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="print full tracebacks instead of one-line error summaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="infer @Perm specs for Java sources")
    infer.add_argument("files", nargs="+")
    infer.add_argument("--no-api", dest="api", action="store_false",
                       help="do not prepend the annotated Iterator API")
    infer.add_argument("--threshold", type=_setting("threshold", float),
                       default=0.5,
                       help="extraction threshold t in [0.5, 1)")
    infer.add_argument("--max-iters",
                       type=_setting("max_worklist_iters", int), default=0,
                       help="worklist iteration cap (default: 0 = 3 passes)")
    infer.add_argument("--executor", default="worklist",
                       type=_setting("executor", str),
                       metavar=EXECUTOR_CHOICES,
                       help="inference schedule: the paper's sequential "
                            "worklist (default) or the level-synchronous "
                            "serial schedule")
    infer.add_argument("--emit-source", action="store_true",
                       help="print the annotated sources")
    infer.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help="persistent analysis cache directory "
                            "(default: %(default)s)")
    infer.add_argument("--no-cache", dest="use_cache", action="store_false",
                       help="disable the persistent analysis cache")
    infer.add_argument("--cache-stats", action="store_true",
                       help="print cache hit/miss counters and the "
                            "checker's tier split")
    infer.add_argument("--fail-report", metavar="PATH", default=None,
                       help="write the structured failure report as JSON "
                            "('-' = stdout)")
    infer.add_argument("--no-resilience", dest="resilience",
                       action="store_false",
                       help="disable fault tolerance: any failure aborts "
                            "the whole run (legacy behaviour)")
    infer.add_argument("--solve-deadline", metavar="SECONDS",
                       type=_nonnegative_seconds("--solve-deadline"),
                       default=0.0,
                       help="per-method solve deadline (0 = none)")
    infer.add_argument("--solve-retries", metavar="N",
                       type=_nonnegative_count("--solve-retries"), default=2,
                       help="solve retries before the prior-only floor "
                            "(default: %(default)s)")
    infer.add_argument("--max-rss-mb", metavar="MB",
                       type=_setting("max_rss_mb", int), default=0,
                       help="soft RSS budget of a cached run: over it "
                            "before the first visit, exit 3; over it after "
                            "a newly cached visit, exit 5 (rerun the same "
                            "command to continue); needs the cache "
                            "(0 = no budget)")
    _add_governance_flags(infer)
    infer.set_defaults(run=cmd_infer)

    serve = sub.add_parser(
        "serve",
        help="run the persistent analysis daemon (analysis as a service)",
    )
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="listen on a Unix socket at PATH")
    serve.add_argument("--port", metavar="N", default=None,
                       type=_nonnegative_count("--port"),
                       help="listen on loopback TCP port N (0 = ephemeral; "
                            "the default when --socket is not given)")
    serve.add_argument("--workers", metavar="N",
                       type=_positive_count("--workers"), default=4,
                       help="concurrent request workers (default: "
                            "%(default)s)")
    serve.add_argument("--queue-limit", metavar="N",
                       type=_positive_count("--queue-limit"), default=64,
                       help="bounded request queue depth; requests beyond "
                            "it are rejected (default: %(default)s)")
    serve.add_argument("--batch-window", metavar="SECONDS",
                       type=_nonnegative_seconds("--batch-window"),
                       default=0.01,
                       help="how long a dispatch wave waits to collect "
                            "coalescable requests (default: %(default)s)")
    serve.add_argument("--batch-max", metavar="N",
                       type=_positive_count("--batch-max"), default=16,
                       help="max requests per dispatch wave "
                            "(default: %(default)s)")
    serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help="shared persistent analysis cache directory "
                            "(default: %(default)s)")
    serve.add_argument("--no-cache", dest="use_cache", action="store_false",
                       help="serve without the persistent analysis cache")
    serve.add_argument("--max-rss-mb", metavar="MB",
                       type=_nonnegative_count("--max-rss-mb"), default=0,
                       help="soft RSS budget: shed new requests with a "
                            "retryable 'overloaded' status while exceeded "
                            "(0 = no budget)")
    serve.add_argument("--max-frame-mb", metavar="MB",
                       type=_nonnegative_count("--max-frame-mb"), default=0,
                       help="per-connection frame cap: a request frame "
                            "announcing more is answered 'invalid' from "
                            "its header alone, its body drained unbuffered "
                            "(0 = the 64 MiB protocol ceiling)")
    serve.add_argument("--max-source-mb", metavar="MB",
                       type=_nonnegative_count("--max-source-mb"), default=32,
                       help="total source bytes one request may carry "
                            "(0 = unlimited; default: %(default)s)")
    serve.add_argument("--heartbeat", metavar="PATH", default=None,
                       help="touch PATH every second as a liveness signal "
                            "(set automatically under --supervise)")
    serve.add_argument("--supervise", action="store_true",
                       help="run under the self-healing supervisor: fork "
                            "the daemon, restart it when it crashes or its "
                            "heartbeat goes stale, give up (exit 6) on a "
                            "crash loop; requires a fixed address")
    serve.add_argument("--max-restarts", metavar="N",
                       type=_positive_count("--max-restarts"), default=5,
                       help="crash-loop bar: restarts tolerated inside "
                            "--restart-window before the supervisor gives "
                            "up (default: %(default)s)")
    serve.add_argument("--restart-window", metavar="SECONDS",
                       type=_nonnegative_seconds("--restart-window"),
                       default=30.0,
                       help="crash-loop window (default: %(default)s)")
    serve.add_argument("--restart-backoff", metavar="SECONDS",
                       type=_nonnegative_seconds("--restart-backoff"),
                       default=0.2,
                       help="initial restart backoff, doubled per restart "
                            "(default: %(default)s)")
    serve.add_argument("--restart-backoff-max", metavar="SECONDS",
                       type=_nonnegative_seconds("--restart-backoff-max"),
                       default=5.0,
                       help="restart backoff cap (default: %(default)s)")
    serve.add_argument("--supervisor-ledger", metavar="PATH", default=None,
                       help="mirror the supervisor's lifecycle event "
                            "ledger to PATH as JSON after every event")
    serve.set_defaults(run=cmd_serve)

    client = sub.add_parser(
        "client", help="send one request to a running repro serve daemon"
    )
    client.add_argument("op", choices=OPS)
    client.add_argument("files", nargs="*")
    client.add_argument("--connect", metavar="ADDRESS", required=True,
                        help="daemon address: a Unix socket path or "
                             "tcp:HOST:PORT (as printed by repro serve)")
    client.add_argument("--no-api", dest="api", action="store_false",
                        help="do not prepend the annotated Iterator API")
    client.add_argument("--threshold", type=_setting("threshold", float),
                        default=0.5)
    client.add_argument("--max-iters",
                        type=_setting("max_worklist_iters", int), default=0)
    client.add_argument("--executor", default="worklist",
                        type=_setting("executor", str),
                        metavar=EXECUTOR_CHOICES)
    client.add_argument("--no-cache", dest="use_cache", action="store_false",
                        help="ask the daemon to bypass the persistent cache")
    client.add_argument("--deadline", metavar="SECONDS",
                        type=_nonnegative_seconds("--deadline"), default=0.0,
                        help="per-request deadline (0 = none)")
    client.add_argument("--timeout", metavar="SECONDS",
                        type=_nonnegative_seconds("--timeout"), default=0.0,
                        help="client socket timeout (0 = wait forever)")
    client.add_argument("--retries", metavar="N",
                        type=_nonnegative_count("--retries"), default=0,
                        help="reconnect-and-retry attempts after a "
                            "connection drop or retryable refusal; a "
                            "retry of work the daemon already finished "
                            "is answered from its store, not run again "
                            "(default: %(default)s = single attempt)")
    client.add_argument("--call-deadline", metavar="SECONDS",
                        type=_nonnegative_seconds("--call-deadline"),
                        default=0.0,
                        help="overall budget for one call across all "
                            "retries (0 = none)")
    client.add_argument("--marginals", action="store_true",
                        help="include raw boundary marginals in the result")
    client.add_argument("--json", action="store_true",
                        help="print the raw JSON response")
    client.set_defaults(run=cmd_client)

    check = sub.add_parser("check", help="run the PLURAL checker")
    check.add_argument("files", nargs="+")
    check.add_argument("--no-api", dest="api", action="store_false")
    check.add_argument("--check-stats", action="store_true",
                       help="print the per-tier method/site/timing split")
    _add_governance_flags(check)
    check.set_defaults(run=cmd_check)

    pfg = sub.add_parser("pfg", help="print a method's permission flow graph")
    pfg.add_argument("files", nargs="+")
    pfg.add_argument("method", help="Class.method")
    pfg.add_argument("--no-api", dest="api", action="store_false")
    pfg.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    pfg.set_defaults(run=cmd_pfg)

    explain = sub.add_parser(
        "explain", help="explain why a method's spec was inferred"
    )
    explain.add_argument("files", nargs="+")
    explain.add_argument("method", help="Class.method")
    explain.add_argument("--no-api", dest="api", action="store_false")
    explain.add_argument("--threshold", type=_setting("threshold", float),
                         default=0.5)
    explain.set_defaults(run=cmd_explain)

    corpus = sub.add_parser(
        "corpus",
        help="generate a deterministic synthetic corpus on disk",
    )
    corpus.add_argument("--methods", metavar="N",
                        type=_positive_count("--methods"), default=0,
                        help="target method count (scales the Table 1 "
                             "corpus proportionally; overrides --scale)")
    corpus.add_argument("--scale", type=float, default=1.0,
                        help="scale factor relative to the Table 1 corpus "
                             "(default: %(default)s)")
    corpus.add_argument("--seed", metavar="S",
                        type=_nonnegative_count("--seed"), default=0,
                        help="generator seed for the structural variation "
                             "(default: %(default)s)")
    corpus.add_argument("--families", metavar="K",
                        type=_nonnegative_count("--families"), default=0,
                        help="protocol families to interleave (0 = what "
                             "the scale implies; 2 adds the stream API)")
    corpus.add_argument("--out", metavar="DIR", required=True,
                        help="output directory (created if missing)")
    corpus.set_defaults(run=cmd_corpus)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5),
                       help="1-4 = paper tables; 5 = schedule comparison")
    table.add_argument("--full", action="store_true",
                       help="paper-scale corpus (tables 1/2/4)")
    table.add_argument("--scale", type=float, default=0.1)
    table.add_argument("--methods", type=int, default=24,
                       help="branchy-program size (table 3)")
    table.set_defaults(run=cmd_table)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=(1, 4, 6, 10))
    figure.set_defaults(run=cmd_figure)

    fuzz = sub.add_parser(
        "fuzz",
        help="run the deterministic structured fuzzing campaign",
        description="Run `budget` seeded cases through the pipeline under "
                    "the invariant sentinels; violations are delta-debugged "
                    "to minimal reproducers and written into the regression "
                    "corpus.  Exit 0 = no violations, 1 = violations found.",
    )
    fuzz.add_argument("--seed", type=_nonnegative_count("--seed"), default=0,
                      help="campaign seed: picks the deterministic case "
                           "stream (default 0)")
    fuzz.add_argument("--budget", metavar="N",
                      type=_positive_count("--budget"), default=100,
                      help="number of cases to run (default 100)")
    fuzz.add_argument("--regressions-dir", metavar="DIR",
                      default=os.path.join("tests", "fuzz_regressions"),
                      help="where minimized reproducers are written "
                           "(default tests/fuzz_regressions)")
    fuzz.add_argument("--case-deadline", metavar="SECONDS",
                      type=_nonnegative_seconds("--case-deadline"),
                      default=30.0,
                      help="per-case wall budget for the deadline sentinel "
                           "(0 disables it; default 30)")
    fuzz.add_argument("--no-minimize", dest="minimize", action="store_false",
                      help="skip delta-debugging of violating cases")
    fuzz.add_argument("--replay", action="store_true",
                      help="re-run the stored regression corpus instead of "
                           "generating new cases")
    fuzz.set_defaults(run=cmd_fuzz)

    return parser


def main(argv=None, out=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, out or sys.stdout)
    except Exception as exc:
        if args.debug:
            raise
        print(
            "repro: fatal: %s: %s (re-run with --debug for the traceback)"
            % (type(exc).__name__, exc),
            file=sys.stderr,
        )
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
