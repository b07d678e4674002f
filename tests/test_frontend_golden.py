"""Front-end differential golden: tokens, trees and errors, pinned exactly.

Every case below is lexed and parsed under ``ResourceLimits()`` (or the
budgets the case names).  Its entry in ``tests/golden/frontend.json``
records the token count and the sha256 of ``[(kind, value, line,
column), ...]`` and of ``repr(unit)``, or the exact error: type,
message, line and column, or a ``ResourceLimitError``'s limit, observed
value, cap and message (after the token count and digest when only the
parser fails).  ``repr`` is hashed rather than
compared with ``==`` because AST nodes leave positions out of equality.

The cases cover the golden and example programs, generated corpus
programs of the benchmark's sizes, every fuzz family, the malformed and
hostile-size matrix, truncation of a program that uses every token kind
at (and one character past) every token boundary, every punctuator,
every pair of binary operators, the Unicode edge characters and the
lexer's budgets.  Rewrite the golden
only for an intended change, and review the diff::

    PYTHONPATH=src python -m pytest tests/test_frontend_golden.py --update-golden
"""

import glob
import hashlib
import json
import os

from repro.corpus.examples import FIGURE3_CLIENT, FIGURE5_COPY
from repro.corpus.generator import CorpusSpec, generate_pmd_corpus
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.corpus.regression import REGRESSION_SUITE
from repro.corpus.stream_api import (
    STREAM_API_SOURCE,
    STREAM_CLIENT_BAD,
    STREAM_CLIENT_GOOD,
)
from repro.fuzz.generator import FAMILIES, generate_case
from repro.java.errors import FrontendError
from repro.java.lexer import tokenize
from repro.java.parser import parse_compilation_unit
from repro.java.tokens import EOF, PUNCTUATION
from repro.resilience.limits import ResourceLimitError, ResourceLimits

from tests.test_golden_specs import PROGRAMS
from tests.test_malformed_inputs import BASE_PROGRAM, HOSTILE, MALFORMED

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
FRONTEND_GOLDEN = os.path.join(TESTS_DIR, "golden", "frontend.json")

#: A program that uses every token kind and grammar form, including
#: comments, escapes, ``\r\n`` line ends, tabs and a raw newline inside
#: a char literal.  It is truncated at every token boundary.
LEXICAL_TOUR = (
    "package org.example.tour;\n"
    "import java.util.*;\n"
    "import java.util.Map;\n"
    "/** A block comment\n * spanning lines. */\n"
    "@Deprecated @Perm(requires = \"full(this) in HASNEXT\", ensures = 'x')\n"
    "public abstract class Tour<K extends Comparable<K>, V> extends Base\r\n"
    "        implements Map<K, List<Set<V>>>, Cloneable {\n"
    "\tprivate static final int[] table, other = 0x1F_fL;\n"
    "    Map<String, List<Map<K, V>>> nested = null;\n"
    "    long big = 1_000_000L; char quote = '\\''; char odd = '''; // ok\n"
    "    char raw = '\n';\n"
    "    Tour(int a) throws IOException, Error { this(a, 2); }\n"
    "    Tour(int a, int b) { super(a); super.x = b; }\n"
    "    native void stub();\n"
    "    <T extends Object> T pick(final T left, T right) { return left; }\n"
    "    int run(Iterator<Integer> it, int[] xs) {\n"
    "        int n = 0; int m;\n"
    "        final int k = -1;\n"
    "        String s = \"tab\\t nl\\n quote\\\" back\\\\ nul\\0 bs\\b ff\\f cr\\r\";\n"
    "        n += 1; n -= 2; n *= 3; n /= 4; n %= 5;\n"
    "        n &= 6; n |= 7; n ^= 8; n <<= 9; n >>= 10;\n"
    "        n = n >>> 1 >> 2 << 3;\n"
    "        boolean b = !(a < b) && c > d || e <= f & g >= h | i ^ j;\n"
    "        b = x instanceof Tour == y instanceof Object && p != q;\n"
    "        n = (n + 1) * 2 / 3 % 4 - ~n + +n - -n;\n"
    "        n = b ? n++ : --n; m = n-- + ++n;\n"
    "        Object o = (Object) s; int c = (int) 'c'; int d = (int) -n;\n"
    "        xs[n] = xs[xs[0]] + new Tour<String, Integer>(1).run(it, xs);\n"
    "        if (it.hasNext()) { it.next(); } else if (b) ; else { n = 0; }\n"
    "        while (it.hasNext()) { if (n > 3) break; continue; }\n"
    "        do { n = n - 1; } while (n > 0);\n"
    "        for (int i = 0; i < 10; i = i + 1) { n = n + i; }\n"
    "        for (i = 0, j = 1; ; i++, j++) { }\n"
    "        for (Integer v : it.rest()) { n = n + v; }\n"
    "        assert n >= 0 : \"negative\";\n"
    "        assert b;\n"
    "        synchronized (this) { n = n + 1; }\n"
    "        switch (n) { case 1: case 2: n = 0; break; default: n = 1; }\n"
    "        Map<K, List<V>> w = new HashMap<>();\n"
    "        \u00dcber \u00fcber = caf\u00e9; int $d_1 = $d_1;\n"
    "        /* trailing */ throw new IllegalStateException(\"done\");\n"
    "    }\n"
    "}\n"
    "interface Shape extends Comparable<Shape>, Cloneable { int area(); }\n"
)

#: Single characters at the edge of the word, number and whitespace
#: classes: letters outside ASCII, letter-like numbers that cannot start a
#: word, decimal digits of other scripts, and whitespace-like characters
#: the lexer does not skip.
EDGE_CHARACTERS = (
    "\u2167"  # ROMAN NUMERAL EIGHT: numeric, not alphabetic
    "\u3007"  # IDEOGRAPHIC NUMBER ZERO: numeric, not alphabetic
    "\u00bc"  # VULGAR FRACTION ONE QUARTER: numeric only
    "\u0663"  # ARABIC-INDIC DIGIT THREE: a decimal digit
    "\u07c0"  # NKO DIGIT ZERO: a decimal digit
    "\U0001d7d8"  # MATHEMATICAL DOUBLE-STRUCK DIGIT ZERO: a decimal digit
    "\u00aa\u00b5\u00c0\u00df\u00ff\u01c5\u4e2d\u0416"  # letters
    # Marks, symbols and spaces that are neither word characters nor
    # blanks: the lexer skips only space, tab, CR and LF.
    "\u00d7\u00f7\u0301\u200b\u00a0\ufeff\u3000\u2028\u2009"
    "\x0b\x0c\x1c\x7f\x80\x00\t\r#`\\"
)

#: Whole sources at the line, column and literal edges.
EDGE_SOURCES = {
    "crlf-lines": "class A {\r\n  int x;\r\n}\r\n",
    "lone-cr": "class A {\r  int x;\r}",
    "tabs-count-one-column": "class A {\n\t\tint x;\n\t}",
    "raw-newline-in-char": "class A { char c = '\n'; int x; }",
    "raw-newline-in-char-unterminated": "class A { char c = '\nx",
    "escape-at-eof-in-string": 'class A { String s = "ab\\',
    "escape-at-eof-in-char": "class A { char c = '\\",
    "unknown-escape-in-char": "class A { char c = '\\q'; }",
    "newline-escape-in-string": 'class A { String s = "a\\\nb"; }',
    "empty-char": "class A { char c = ''; }",
    "quote-char": "class A { char c = '''; }",
    "char-at-eof": "class A { char c = '",
    "cr-in-string": 'class A { String s = "a\rb"; }',
    "underscore-trailing": "class A { int f() { return 1_; } }",
    "underscore-double": "class A { int f() { return 1__0; } }",
    "hex-underscores": "class A { int f() { return 0x_1_f_; } }",
    "hex-then-letters": "class A { int f() { return 0x1g; } }",
    "digits-then-word": "class A { int f() { return 12ab; } }",
    "arabic-digits": "class A { int f() { return \u0663\u0661; } }",
    "mixed-digits": "class A { int f() { return 1\u0663_0L; } }",
    "block-comment-no-reuse": "class A { } /*/ x",
    "block-comment-closes": "class A { } /*/ x */",
    "comment-opener-in-string": 'class A { String s = "/*"; }',
    "line-comment-at-eof": "class A { } //",
    "only-eof": "",
}


#: Every binary operator, and one of each precedence level, loosest first.
BINARY_OPERATORS = "|| && | ^ & == != < > <= >= instanceof << >> >>> + - * / %".split()
BINARY_LEVELS = "|| && | ^ & == < instanceof << + *".split()


def _operand(operator, name):
    """`` <operator> <name>``, where the operand of ``instanceof`` is a type."""
    if operator == "instanceof":
        return " instanceof %s" % name.upper()
    return " %s %s" % (operator, name)


def _corpus(seed, scale):
    spec = CorpusSpec(seed=seed, filler_call_density=0.12)
    return tuple(generate_pmd_corpus(spec.scaled(scale)).sources)


def _boundaries(source):
    """Source offsets of every token start past the first character."""
    line_starts = [0]
    for line in source.split("\n"):
        line_starts.append(line_starts[-1] + len(line) + 1)
    return sorted(
        {
            line_starts[token.line - 1] + token.column - 1
            for token in tokenize(source)
            if token.kind != EOF
        }
        - {0}
    )


def frontend_cases():
    """Case name -> ``(sources, limits)``."""
    default = ResourceLimits()
    cases = {}

    def add(name, sources, limits=default):
        assert name not in cases, name
        cases[name] = (tuple(sources), limits)

    # Golden and example programs.
    add("program/iterator-api", [ITERATOR_API_SOURCE])
    add("program/figure3", [FIGURE3_CLIENT])
    add("program/figure5", [FIGURE5_COPY])
    add("program/stream-api", [STREAM_API_SOURCE])
    add("program/stream-good", [STREAM_CLIENT_GOOD])
    add("program/stream-bad", [STREAM_CLIENT_BAD])
    for name in sorted(PROGRAMS):
        add("program/golden-%s" % name, PROGRAMS[name]())
    for case in REGRESSION_SUITE:
        add("program/regression-%s" % case.name, [case.source])
    for path in sorted(glob.glob(os.path.join(TESTS_DIR, "fuzz_regressions", "*.java"))):
        with open(path) as handle:
            add("program/" + os.path.basename(path), [handle.read()])
    add("program/lexical-tour", [LEXICAL_TOUR])

    # The benchmark's program sizes: batch-cold seeds 0-1, edit-warm seed 0.
    for seed in (0, 1):
        for index in range(4):
            project = seed * 100 + index
            add("corpus/batch-cold-%d" % project, _corpus(project, 0.03))
    for index in range(4):
        add("corpus/edit-warm-%d" % index, _corpus(index, 0.015))

    # Twelve fuzz cases of every family (families rotate by index).
    for index in range(12 * len(FAMILIES)):
        case = generate_case(0, index)
        add("fuzz/%s" % case.label, case.sources)

    # The malformed and hostile-size matrix.
    for name in sorted(MALFORMED):
        add("malformed/%s" % name, [MALFORMED[name]])
    for name in sorted(HOSTILE):
        add("hostile/%s" % name, [HOSTILE[name][0]])

    # Truncation at and one character past every token boundary.
    for name, source in (("base", BASE_PROGRAM), ("tour", LEXICAL_TOUR)):
        for offset in _boundaries(source):
            add("truncate/%s/%d" % (name, offset), [source[:offset]])
            add("truncate/%s/%d+1" % (name, offset), [source[: offset + 1]])

    # Every punctuator, alone and as an operator; every ordered pair.
    for punct in PUNCTUATION:
        add("punct/alone/%s" % punct, [punct])
        add(
            "punct/operator/%s" % punct,
            ["class A { void m() { x = a %s b; } }" % punct],
        )
    add(
        "punct/pairs",
        [" ".join(left + right for left in PUNCTUATION for right in PUNCTUATION)],
    )
    add("punct/run", ["".join(PUNCTUATION)])

    # Every binary operator after every other, which pins precedence and
    # associativity, and one operator of each level on both sides of an
    # ``instanceof``, whose operand is a type.
    for first in BINARY_OPERATORS:
        for second in BINARY_OPERATORS:
            add(
                "binary/%s/%s" % (first, second),
                [
                    "class A { void m() { x = a%s%s; } }"
                    % (_operand(first, "b"), _operand(second, "c"))
                ],
            )
    for before in BINARY_LEVELS:
        for after in BINARY_LEVELS:
            add(
                "binary/%s/instanceof/%s" % (before, after),
                [
                    "class A { void m() { x = a%s instanceof T%s; } }"
                    % (_operand(before, "b"), _operand(after, "c"))
                ],
            )

    # Edge characters as a word start, inside a word and after a number.
    for char in EDGE_CHARACTERS:
        code = "U+%04X" % ord(char)
        add("edge/%s/start" % code, [char + "x"])
        add("edge/%s/inside" % code, ["x" + char + "y"])
        add("edge/%s/after-number" % code, ["1" + char])
    for name in sorted(EDGE_SOURCES):
        add("edge/%s" % name, [EDGE_SOURCES[name]])

    # The lexer's budgets, at and one past each cap.
    lines = "\n".join("int x%d ;" % index for index in range(10))
    add("budget/tokens-at-cap", [lines], ResourceLimits(max_tokens=30))
    add("budget/tokens-past-cap", [lines], ResourceLimits(max_tokens=29))
    add("budget/tokens-before-lex-error", [lines + " #"], ResourceLimits(max_tokens=29))
    literal = 'class A { String s = "%s"; }'
    add("budget/literal-at-cap", [literal % ("a" * 8)], ResourceLimits(max_literal_chars=8))
    add("budget/literal-past-cap", [literal % ("a" * 9)], ResourceLimits(max_literal_chars=8))
    add(
        "budget/literal-escapes-past-cap",
        [literal % ("\\n" * 9)],
        ResourceLimits(max_literal_chars=8),
    )
    add(
        "budget/literal-past-cap-then-unterminated",
        ['class A { String s = "' + "a" * 9],
        ResourceLimits(max_literal_chars=8),
    )
    add(
        "budget/literal-past-cap-then-bad-escape",
        ['class A { String s = "' + "a" * 9 + "\\q"],
        ResourceLimits(max_literal_chars=8),
    )
    add("budget/source-at-cap", ["class A {}"], ResourceLimits(max_source_chars=10))
    add("budget/source-past-cap", ["class A {}#"], ResourceLimits(max_source_chars=10))
    add("budget/ungoverned", [LEXICAL_TOUR], ResourceLimits.disabled())
    return cases


def _sha(text):
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def outcome(sources, limits):
    """The golden entry of one case: its tokens and tree, or its error."""
    entry = {}
    try:
        tokens = [
            [tuple(token) for token in tokenize(source, limits=limits)]
            for source in sources
        ]
        entry["tokens"] = sum(len(listed) for listed in tokens)
        entry["tokens_sha"] = _sha(repr(tokens))
        units = [parse_compilation_unit(source, limits=limits) for source in sources]
        entry["unit_sha"] = _sha(repr(units))
    except FrontendError as exc:
        entry["error"] = [type(exc).__name__, exc.message, exc.line, exc.column]
    except ResourceLimitError as exc:
        entry["error"] = [type(exc).__name__, exc.limit, exc.observed, exc.cap, str(exc)]
    return entry


def test_frontend_golden(update_golden):
    """Every case's tokens, tree and error equal the reviewed golden."""
    actual = {
        name: outcome(sources, limits)
        for name, (sources, limits) in frontend_cases().items()
    }
    if update_golden:
        # One case per line, so a review diff names the cases that moved.
        lines = [
            "%s: %s" % (json.dumps(name), json.dumps(actual[name], ensure_ascii=False))
            for name in sorted(actual)
        ]
        with open(FRONTEND_GOLDEN, "w", encoding="utf-8") as handle:
            handle.write("{\n" + ",\n".join(lines) + "\n}\n")
        return
    with open(FRONTEND_GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert sorted(actual) == sorted(expected), "the case list changed"
    changed = sorted(name for name in expected if actual[name] != expected[name])
    assert not changed, (
        "front-end golden mismatch in %d case(s), first %s: %r != %r; if the "
        "change is intentional, rerun with --update-golden and review the diff"
        % (len(changed), changed[0], actual[changed[0]], expected[changed[0]])
    )

