"""Resource governance: budgets on every untrusted-input stage.

Covers the :class:`ResourceLimits` dataclass and its typed
:class:`ResourceLimitError`, each governed stage (lexer, parser, PFG
builder, factor graph, worklist, wire protocol), the ledger's
``resource-limit`` disposition, the CLI flags, and the central
differential contract: a clean-corpus run is bit-identical with
governance on or off.
"""

import io
import socket
import struct
import sys
from dataclasses import fields

import pytest

from repro.cli import main as cli_main
from repro.core.pfg_builder import build_pfg
from repro.core.pipeline import AnekPipeline
from repro.core.infer import InferenceSettings
from repro.corpus.examples import FIGURE3_CLIENT
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.lexer import tokenize
from repro.java.parser import Parser, parse_compilation_unit
from repro.resilience.limits import (
    ResourceLimitError,
    ResourceLimits,
    recursion_guard,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import DISPOSITIONS, _DEGRADED
from repro.serve.protocol import (
    MAGIC,
    FrameBuffer,
    FrameTooLarge,
    ProtocolError,
    encode_message,
    normalize_request,
)

from tests.conftest import build_program, method_ref


def _deep_nesting_source(depth=120):
    expr = "(" * depth + "1" + ")" * depth
    return "class Deep { void m() { int x = %s; } }" % expr


def _deep_blocks_source(depth):
    # Block nesting costs 3 interpreter frames per level, fewer than a
    # parenthesized expression's 7, so depths just past the 48-level
    # budget stay parseable with governance off.
    body = "{" * depth + "int x = 1;" + "}" * depth
    return "class Deep { void m() { %s } }" % body


def _deepest_stack_at(method, source):
    """The deepest interpreter stack on entry to ``Parser.<method>`` while
    parsing ``source``; a profile hook adds no frame of its own."""
    code = getattr(Parser, method).__code__
    deepest = 0

    def profile(frame, event, arg):
        nonlocal deepest
        if event == "call" and frame.f_code is code:
            depth = 0
            while frame is not None:
                depth += 1
                frame = frame.f_back
            deepest = max(deepest, depth)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        parse_compilation_unit(source, limits=ResourceLimits())
    finally:
        sys.setprofile(previous)
    return deepest


# ---------------------------------------------------------------------------
# The limits object and its typed error
# ---------------------------------------------------------------------------


class TestResourceLimits:
    def test_vocabulary(self):
        assert "resource-limit" in DISPOSITIONS
        assert "resource-limit" in _DEGRADED

    def test_defaults_enabled(self):
        limits = ResourceLimits()
        assert all(limits.cap(budget.name) > 0 for budget in fields(limits))
        assert limits.cap("max_parse_depth") == limits.max_parse_depth

    def test_disabled_caps_are_zero(self):
        limits = ResourceLimits.disabled()
        assert all(limits.cap(budget.name) == 0 for budget in fields(limits))
        # check() is a no-op when disabled.
        limits.check("max_tokens", "token-count", 10**12)

    def test_check_raises_typed_error(self):
        limits = ResourceLimits(max_tokens=5)
        with pytest.raises(ResourceLimitError) as excinfo:
            limits.check("max_tokens", "token-count", 6, "unit 3")
        error = excinfo.value
        assert error.limit == "token-count"
        assert error.observed == 6
        assert error.cap == 5
        assert "token-count limit exceeded: 6 > 5 (unit 3)" in str(error)
        assert isinstance(error, RuntimeError)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ResourceLimits(max_parse_depth=-1)

    def test_zero_means_unlimited(self):
        limits = ResourceLimits(max_tokens=0)
        limits.check("max_tokens", "token-count", 10**12)

    def test_recursion_guard_converts(self):
        def bomb(n=0):
            return bomb(n + 1)

        with pytest.raises(ResourceLimitError) as excinfo:
            with recursion_guard("parse-depth", "unit test"):
                bomb()
        assert excinfo.value.limit == "parse-depth"
        assert isinstance(excinfo.value.__cause__, RecursionError)


# ---------------------------------------------------------------------------
# Governed stages, unit by unit
# ---------------------------------------------------------------------------


class TestStageBudgets:
    def test_lexer_source_chars(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            tokenize("int x;" * 10, limits=ResourceLimits(max_source_chars=8))
        assert excinfo.value.limit == "source-chars"

    def test_lexer_token_count(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            tokenize("int x = 1 ;" * 50, limits=ResourceLimits(max_tokens=20))
        assert excinfo.value.limit == "token-count"

    def test_lexer_literal_chars(self):
        source = 'class C { String s = "%s"; }' % ("a" * 100)
        with pytest.raises(ResourceLimitError) as excinfo:
            tokenize(source, limits=ResourceLimits(max_literal_chars=50))
        assert excinfo.value.limit == "literal-chars"

    def test_lexer_unlimited_matches_default(self):
        source = "class C { int f; void m() { this.f = 1; } }"
        assert [
            (token.kind, token.value) for token in tokenize(source)
        ] == [
            (token.kind, token.value)
            for token in tokenize(source, limits=ResourceLimits())
        ]

    def test_parser_depth_budget(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            parse_compilation_unit(
                _deep_nesting_source(120), limits=ResourceLimits()
            )
        assert excinfo.value.limit == "parse-depth"

    def test_parser_depth_budget_statement_nesting(self):
        with pytest.raises(ResourceLimitError) as excinfo:
            parse_compilation_unit(
                _deep_blocks_source(100), limits=ResourceLimits()
            )
        assert excinfo.value.limit == "parse-depth"

    @pytest.mark.parametrize(
        "make_source, method, frames",
        [(_deep_nesting_source, "_parse_primary", 7), (_deep_blocks_source, "parse_block", 3)],
        ids=["parenthesized", "blocks"],
    )
    def test_frames_per_nesting_level(self, make_source, method, frames):
        # The figures the DEFAULT_MAX_PARSE_DEPTH comment and
        # _deep_blocks_source state: 48 levels must stay far under
        # CPython's 1000-frame recursion limit.
        ten = _deepest_stack_at(method, make_source(10))
        twenty = _deepest_stack_at(method, make_source(20))
        assert twenty - ten == 10 * frames

    def test_parser_accepts_normal_nesting_under_default(self):
        source = _deep_nesting_source(10)
        unit = parse_compilation_unit(source, limits=ResourceLimits())
        assert unit.types[0].name == "Deep"

    def test_parser_no_limits_still_parses_deep(self):
        # Without governance the old behaviour survives for depths the
        # interpreter can still take.
        unit = parse_compilation_unit(_deep_blocks_source(60))
        assert unit.types[0].name == "Deep"

    def test_pfg_node_budget(self):
        program = build_program(FIGURE3_CLIENT)
        ref = method_ref(program, "Row", "copy")
        with pytest.raises(ResourceLimitError) as excinfo:
            build_pfg(program, ref, limits=ResourceLimits(max_pfg_nodes=3))
        assert excinfo.value.limit == "pfg-nodes"

    def test_pfg_default_budget_untripped(self):
        program = build_program(FIGURE3_CLIENT)
        ref = method_ref(program, "Row", "copy")
        pfg = build_pfg(program, ref, limits=ResourceLimits())
        assert pfg.node_count() > 3


def _run(sources, limits=None, **kwargs):
    policy = (
        ResiliencePolicy()
        if limits is None
        else ResiliencePolicy(limits=limits)
    )
    settings = InferenceSettings(policy=policy, **kwargs)
    return AnekPipeline(settings=settings, cache=None).run_on_sources(
        list(sources)
    )


class TestPipelineQuarantine:
    def test_parse_breach_is_quarantined_not_fatal(self):
        result = _run(
            [ITERATOR_API_SOURCE, FIGURE3_CLIENT, _deep_nesting_source(120)]
        )
        records = [
            record
            for record in result.failures
            if record.disposition == "resource-limit"
        ]
        assert records, "depth breach must land in the ledger"
        assert all(record.stage == "parse" for record in records)
        assert result.degraded
        # The clean units still produced specs.
        assert any(not spec.is_empty for spec in result.specs.values())

    def test_breach_quarantined_even_with_policy_disabled(self):
        # Resource governance protects the process, so it applies even
        # under ResiliencePolicy.disabled() (only ResourceLimits.disabled()
        # turns it off).
        result = AnekPipeline(
            settings=InferenceSettings(policy=ResiliencePolicy.disabled()),
            cache=None,
        ).run_on_sources([ITERATOR_API_SOURCE, _deep_nesting_source(120)])
        assert any(
            record.disposition == "resource-limit"
            for record in result.failures
        )

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_graph_factor_budget_quarantines_method(self, executor, enabled):
        # One quarantine rule for both schedules: a budget breach is a
        # ``resource-limit`` quarantine whether or not the resilience
        # policy is on.
        policy = ResiliencePolicy(
            enabled=enabled, limits=ResourceLimits(max_graph_factors=5)
        )
        result = AnekPipeline(
            settings=InferenceSettings(policy=policy, executor=executor),
            cache=None,
        ).run_on_sources([ITERATOR_API_SOURCE, FIGURE3_CLIENT])
        records = [
            record
            for record in result.failures
            if record.disposition == "resource-limit"
        ]
        assert records
        assert {record.stage for record in records} <= {"constraints", "solve"}
        assert not [
            record
            for record in result.failures
            if record.disposition == "method-quarantined"
        ]

    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_worklist_visit_ceiling(self, executor):
        result = _run(
            [ITERATOR_API_SOURCE, FIGURE3_CLIENT],
            limits=ResourceLimits(max_worklist_visits=1),
            executor=executor,
        )
        assert result.inference_stats.solves == 1
        records = [
            record for record in result.failures if record.stage == "resource"
        ]
        assert len(records) == 1
        assert records[0].disposition == "resource-limit"
        assert records[0].key == "worklist"

    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_worklist_ceiling_untripped_on_clean_run(self, executor):
        result = _run([ITERATOR_API_SOURCE, FIGURE3_CLIENT], executor=executor)
        assert not [
            record for record in result.failures if record.stage == "resource"
        ]


# ---------------------------------------------------------------------------
# The differential contract: governance never changes clean results
# ---------------------------------------------------------------------------


class TestGovernanceBitIdentity:
    SOURCES = (ITERATOR_API_SOURCE, FIGURE3_CLIENT)

    @pytest.mark.parametrize("engine", ["loopy", "compiled"])
    def test_engines(self, engine):
        governed = _run(self.SOURCES, engine=engine)
        ungoverned = _run(
            self.SOURCES, limits=ResourceLimits.disabled(), engine=engine
        )
        assert governed.canonical_json(
            include_marginals=True
        ) == ungoverned.canonical_json(include_marginals=True)

    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_executors(self, executor):
        governed = _run(self.SOURCES, executor=executor)
        ungoverned = _run(
            self.SOURCES, limits=ResourceLimits.disabled(), executor=executor
        )
        assert governed.canonical_json(
            include_marginals=True
        ) == ungoverned.canonical_json(include_marginals=True)


# ---------------------------------------------------------------------------
# Wire-protocol caps
# ---------------------------------------------------------------------------


class TestProtocolCaps:
    def test_frame_buffer_rejects_oversized_header(self):
        buffer = FrameBuffer(max_frame=64)
        frame = MAGIC + struct.pack("<I", 1000)
        with pytest.raises(FrameTooLarge):
            buffer.feed(frame)

    def test_frame_buffer_keeps_earlier_messages(self):
        buffer = FrameBuffer(max_frame=64)
        good = encode_message({"op": "ping"})
        huge_header = MAGIC + struct.pack("<I", 1000)
        with pytest.raises(FrameTooLarge) as excinfo:
            buffer.feed(good + huge_header)
        assert excinfo.value.messages == [{"op": "ping"}]

    def test_frame_buffer_resynchronizes_after_discard(self):
        buffer = FrameBuffer(max_frame=64)
        with pytest.raises(FrameTooLarge):
            buffer.feed(MAGIC + struct.pack("<I", 100))
        # The oversized body arrives (and is discarded), then a good
        # frame on the same connection decodes normally.
        assert buffer.feed(b"x" * 60) == []
        follow_up = buffer.feed(b"x" * 40 + encode_message({"op": "stats"}))
        assert follow_up == [{"op": "stats"}]

    def test_frame_buffer_never_buffers_oversized_body(self):
        buffer = FrameBuffer(max_frame=64)
        with pytest.raises(FrameTooLarge):
            buffer.feed(MAGIC + struct.pack("<I", 10**6) + b"y" * 1000)
        assert len(buffer._buffer) == 0

    def test_normalize_request_source_cap(self):
        payload = {"op": "infer", "sources": ["class A {}" * 100]}
        with pytest.raises(ProtocolError) as excinfo:
            normalize_request(payload, max_source_bytes=100)
        assert "exceed" in str(excinfo.value)
        # 0 disables the cap.
        normalize_request(payload, max_source_bytes=0)

    def test_served_check_is_governed_like_infer(self):
        """A served ``check`` parses under the server's budgets, as an
        ``infer`` does: a breached unit is quarantined, and the answer
        is ``degraded`` with the same ledger records."""
        from repro.serve.server import AnekServer

        server = AnekServer(
            port=0,
            use_cache=False,
            policy=ResiliencePolicy(limits=ResourceLimits(max_tokens=50)),
        )
        failures = {}
        for op in ("check", "infer"):
            request = normalize_request(
                {
                    "op": op,
                    "sources": [ITERATOR_API_SOURCE, FIGURE3_CLIENT],
                    "api": False,
                }
            )
            executed = server._execute(request, [])
            assert executed["status"] == "degraded"
            failures[op] = executed["stats"]["failures"]["failures"]
        assert [
            (record["stage"], record["key"], record["disposition"])
            for record in failures["check"]
        ] == [
            ("parse", "unit:0", "resource-limit"),
            ("parse", "unit:1", "resource-limit"),
        ]
        assert failures["check"] == failures["infer"]

    def test_server_answers_invalid_and_survives(self, tmp_path):
        from tests.serve_harness import running_server
        from repro.serve.client import ServeClient
        from repro.serve.protocol import recv_message, send_message

        with running_server(
            tmp_path, workers=1, max_frame_bytes=4096
        ) as server:
            family, target = (
                (socket.AF_INET, server.address[len("tcp:") :])
                if server.address.startswith("tcp:")
                else (socket.AF_UNIX, server.address)
            )
            if family == socket.AF_INET:
                host, _, port = target.rpartition(":")
                target = (host or "127.0.0.1", int(port))
            sock = socket.socket(family, socket.SOCK_STREAM)
            sock.settimeout(10.0)
            sock.connect(target)
            try:
                # An oversized frame gets a clean "invalid" refusal...
                sock.sendall(MAGIC + struct.pack("<I", 100_000) + b"z" * 100_000)
                response = recv_message(sock)
                assert response["status"] == "invalid"
                assert response["retryable"] is False
                # ...and the very same connection still serves requests.
                send_message(sock, {"op": "ping"})
                assert recv_message(sock)["status"] == "ok"
            finally:
                sock.close()
            # The breach is counted and on the daemon's failure ledger.
            with ServeClient(server.address) as client:
                stats = client.stats()
            assert stats["responses"].get("invalid", 0) >= 1
            assert any(
                record["disposition"] == "resource-limit"
                for record in stats["failures"]["failures"]
            )


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


class TestCliGovernance:
    # All runs use --no-cache: a warm parse-cache hit skips the lexer
    # and parser entirely, so no budget is consulted (a hit means the
    # source was already parsed cleanly, and costs no resources).

    def test_depth_breach_exits_degraded(self, tmp_path, capsys):
        path = tmp_path / "deep.java"
        path.write_text(_deep_nesting_source(120))
        assert cli_main(["infer", "--no-cache", str(path)]) == 2
        capsys.readouterr()

    def test_check_is_governed_like_infer(self, tmp_path):
        """``repro check`` parses under isolation, as ``infer`` and a
        served ``check`` do: a unit past the depth budget is quarantined
        and printed, and the check exits 2 instead of dying fatally."""
        path = tmp_path / "deep.java"
        path.write_text(_deep_nesting_source(200))
        record = "  [parse] unit:1: ResourceLimitError (resource-limit)"
        for argv in (["check", str(path)], ["infer", "--no-cache", str(path)]):
            out = io.StringIO()
            assert cli_main(argv, out) == 2
            assert record in out.getvalue().splitlines()

    def test_no_governance_flag(self, tmp_path, capsys):
        path = tmp_path / "deep.java"
        # Deep enough to trip the depth budget, shallow enough for the
        # ungoverned parser to survive.
        path.write_text(_deep_blocks_source(60))
        assert cli_main(["infer", "--no-cache", str(path)]) == 2
        capsys.readouterr()
        assert (
            cli_main(["infer", "--no-cache", "--no-governance", str(path)])
            == 0
        )
        capsys.readouterr()

    def test_tunable_budget_flag(self, tmp_path, capsys):
        path = tmp_path / "ok.java"
        path.write_text(_deep_nesting_source(10))
        assert cli_main(["infer", "--no-cache", str(path)]) == 0
        capsys.readouterr()
        assert (
            cli_main(
                ["infer", "--no-cache", "--max-parse-depth", "3", str(path)]
            )
            == 2
        )
        capsys.readouterr()

    def test_negative_budget_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "ok.java"
        path.write_text("class C { }")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["infer", "--max-tokens", "-1", str(path)])
        assert excinfo.value.code == 3
        capsys.readouterr()
