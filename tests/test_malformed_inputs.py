"""Malformed-input matrix: hostile text must cost quarantines, never a crash.

Every case runs through the full pipeline under the default policy and
is held to the same two assertions: ``run_on_sources`` returns (no
exception escapes), and every resulting ledger record uses the
documented stage/disposition vocabularies, and every parse-stage record
carries a typed frontend error (``LexError``, ``JavaSyntaxError`` or
``ResourceLimitError``), never an untyped crash.  The matrix covers the
classic lexer/parser trouble spots — unterminated strings and comments,
NUL bytes, non-ASCII text, malformed number literals, inputs of hostile
size, and truncation at every token boundary of a valid program.
"""

import pytest

from repro.core.infer import InferenceSettings
from repro.core.pipeline import AnekPipeline
from repro.java.errors import JavaSyntaxError
from repro.java.lexer import tokenize
from repro.java.parser import parse_compilation_unit
from repro.resilience.limits import ResourceLimits
from repro.resilience.report import DISPOSITIONS, STAGES

#: A small but representative protocol client.
BASE_PROGRAM = """class Walker {
    void walk(Collection<String> c) {
        Iterator<String> it = c.iterator();
        while (it.hasNext()) {
            String s = it.next();
        }
    }
}
"""

MALFORMED = {
    "unterminated-string": 'class A { String s = "never closed; }',
    "unterminated-char": "class A { char c = 'x; }",
    "unterminated-block-comment": "class A { /* runs off the end",
    "nested-unterminated-comment": "class A { } /* outer /* inner",
    "line-comment-eof": "class A { } // no trailing newline",
    "nul-byte": "class A { void m() { int\x00x = 1; } }",
    "nul-in-string": 'class A { String s = "a\x00b"; }',
    "non-ascii-identifier": "class A { void m() { int café = 1; } }",
    "cjk-text": "class 中文 { void m() { } }",
    "emoji": "class A { void m() { /* \U0001f642 */ int x = 1; } }",
    "bom-prefix": "﻿class A { void m() { } }",
    "high-byte-salad": "class A { \x80\x81\xfe\xff }",
    "lone-backslash": "class A { void m() { int x = \\; } }",
    "unbalanced-close": "class A { void m() { } } } } }",
    "unbalanced-open": "class A { void m() { if (x) { while (y) {",
    "only-punctuation": "@;:{}()<>,.=+-*/%!&|^~?",
    "empty": "",
    "whitespace-only": "   \n\t\r\n   ",
}

#: Number literals ``int()`` cannot read, each with the exact
#: ``(error type, message)`` of its parse record.
NUMBER_LITERALS = {
    "hex-without-digits": (
        "class A { int f() { return 0x; } }",
        "LexError",
        "malformed number literal '0x' (line 1, column 28)",
    ),
    "hex-underscore-only": (
        "class A { int f() { return 0x_; } }",
        "LexError",
        "malformed number literal '0x_' (line 1, column 28)",
    ),
    "hex-long-suffix-only": (
        "class A { long f() { return 0XL; } }",
        "LexError",
        "malformed number literal '0XL' (line 1, column 29)",
    ),
    "superscript-digit": (
        "class A { int f() { return \u00b2; } }",
        "LexError",
        "unexpected character '\u00b2' (line 1, column 28)",
    ),
    "superscript-after-digit": (
        "class A { int f() { return 1\u00b2; } }",
        "LexError",
        "unexpected character '\u00b2' (line 1, column 29)",
    ),
    "decimal-past-int-digit-limit": (
        "class A { int f() { return %s; } }" % ("1" * 5000),
        "JavaSyntaxError",
        "integer literal too long (5000 digits) (line 1, column 28)",
    ),
}

#: Inputs of hostile size, each with the exact ``(error type, message)``
#: of its parse record.  Each must be rejected in time linear in its
#: length: a scanner that retried every ``/*`` opener would take hours on
#: the comment row.
HOSTILE = {
    "mib-of-comment-openers": (
        "class A { " + "/*a " * (256 * 1024),
        "LexError",
        "unterminated block comment (line 1, column 1048587)",
    ),
    "unterminated-long-string": (
        'class A { String s = "' + "a" * 70_000,
        "ResourceLimitError",
        "literal-chars limit exceeded: 65537 > 65536 (string literal at line 1)",
    ),
    "string-of-newline-escapes": (
        'class A { String s = "' + "\\n" * (512 * 1024) + '"; }',
        "ResourceLimitError",
        "literal-chars limit exceeded: 65537 > 65536 (string literal at line 1)",
    ),
    "mib-of-spaces-then-nul": (
        " " * (1024 * 1024) + "\x00",
        "LexError",
        "unexpected character '\\x00' (line 1, column 1048577)",
    ),
}

#: Operators that bind tighter than ``instanceof`` cannot follow its type
#: operand, each with the exact ``(error type, message)`` of its parse
#: record.
TIGHTER_AFTER_INSTANCEOF = {
    "instanceof-then-plus": (
        "class A { void m() { boolean b = x instanceof T + 1; } }",
        "JavaSyntaxError",
        "expected ';' but found '+' (line 1, column 49)",
    ),
    "instanceof-then-times": (
        "class A { void m() { boolean b = x instanceof T * 2; } }",
        "JavaSyntaxError",
        "expected ';' but found '*' (line 1, column 49)",
    ),
    "equality-instanceof-then-shift": (
        "class A { void m() { boolean b = y == x instanceof T << 1; } }",
        "JavaSyntaxError",
        "expected ';' but found '<<' (line 1, column 54)",
    ),
}

#: The only errors a parse-stage record may carry.
PARSE_ERRORS = ("LexError", "JavaSyntaxError", "ResourceLimitError")


def _run(source):
    pipeline = AnekPipeline(settings=InferenceSettings(), cache=None)
    return pipeline.run_on_sources([source])


def _assert_ledger_clean_vocab(result):
    for record in result.failures:
        assert record.stage in STAGES, record.format()
        assert record.disposition in DISPOSITIONS, record.format()
        if record.stage == "parse":
            assert record.error in PARSE_ERRORS, record.format()


class TestMalformedMatrix:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_quarantine_not_crash(self, name):
        result = _run(MALFORMED[name])
        _assert_ledger_clean_vocab(result)

    @pytest.mark.parametrize(
        "name", sorted(NUMBER_LITERALS) + sorted(HOSTILE) + sorted(TIGHTER_AFTER_INSTANCEOF)
    )
    def test_exact_parse_error(self, name):
        source, error, message = {**NUMBER_LITERALS, **HOSTILE, **TIGHTER_AFTER_INSTANCEOF}[name]
        result = _run(source)
        _assert_ledger_clean_vocab(result)
        parse_records = [
            (record.error, record.message)
            for record in result.failures
            if record.stage == "parse"
        ]
        assert parse_records == [(error, message)]

    def test_overlong_decimal_literal_is_a_syntax_error(self):
        # CPython's int() refuses decimal strings past 4,300 digits; the
        # parser reports that as a positioned syntax error.
        source = NUMBER_LITERALS["decimal-past-int-digit-limit"][0]
        with pytest.raises(JavaSyntaxError) as excinfo:
            parse_compilation_unit(source, limits=ResourceLimits())
        assert (excinfo.value.line, excinfo.value.column) == (1, 28)
        assert excinfo.value.message == "integer literal too long (5000 digits)"

    def test_malformed_beside_valid_unit(self):
        # A hostile unit must not take a valid sibling down with it.
        pipeline = AnekPipeline(settings=InferenceSettings(), cache=None)
        result = pipeline.run_on_sources(
            [BASE_PROGRAM, MALFORMED["unterminated-string"]]
        )
        _assert_ledger_clean_vocab(result)
        assert any(
            ref.qualified_name.startswith("Walker.") for ref in result.specs
        )


class TestTruncationMatrix:
    def _boundaries(self):
        # Token (line, column) pairs back to flat source offsets: every
        # token start is a truncation point.
        line_starts = [0]
        for line in BASE_PROGRAM.splitlines(keepends=True):
            line_starts.append(line_starts[-1] + len(line))
        offsets = sorted(
            {
                line_starts[token.line - 1] + token.column - 1
                for token in tokenize(BASE_PROGRAM)
                if token.kind != "EOF"
            }
        )
        offsets = [offset for offset in offsets if offset > 0]
        assert len(offsets) > 30, "expected a real token stream"
        return offsets

    def test_truncation_at_every_token_boundary(self):
        for offset in self._boundaries():
            truncated = BASE_PROGRAM[:offset]
            result = _run(truncated)
            _assert_ledger_clean_vocab(result)

    def test_mid_token_truncation(self):
        # Also cut *inside* tokens (identifier, keyword, string) — one
        # character past each boundary.
        for offset in self._boundaries()[::3]:
            truncated = BASE_PROGRAM[: offset + 1]
            result = _run(truncated)
            _assert_ledger_clean_vocab(result)
