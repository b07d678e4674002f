"""Regex lexer for the Java subset.

One compiled master pattern does the scanning.  Each match consumes the
blanks and line comments before a token, then the token itself through
one named group per form: words, numbers and punctuators, tried longest
first so the match is maximal munch.  Lines and columns come from
newline offsets.  Block comments, string and char literals and every
error take short hand-written paths whose messages and positions are
those of a character-at-a-time scanner.  Each path runs in time linear
in its input: an unterminated ``/*`` or string fails at its first
opener.
"""

import re

from repro.java.errors import LexError
from repro.resilience.limits import ResourceLimitError
from repro.java.tokens import (
    BOOL_LIT,
    CHAR_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    KEYWORDS,
    NULL_LIT,
    PUNCT,
    PUNCTUATION,
    STRING_LIT,
    Token,
)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "0": "\0",
    "'": "'",
    '"': '"',
    "\\": "\\",
}

_WORD_KINDS = dict.fromkeys(KEYWORDS, KEYWORD)
_WORD_KINDS.update(true=BOOL_LIT, false=BOOL_LIT, null=NULL_LIT)

# Only space, tab, CR and LF are blanks.  ``\w`` is ``str.isalnum()``
# plus ``_``, and ``\d`` is ``str.isdecimal()``, which ``int()`` reads.
# No class is ``str.isalpha()``: a word may start with any letter, so a
# word starting outside ASCII (``uword``) has its first character
# checked by hand.  A hex literal needs a hex digit, so every
# ``INT_LIT`` has a form ``int()`` reads.
_MASTER = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)*"
    r"(?:(?P<word>[A-Za-z_$][\w$]*)"
    r"|(?P<comment>/\*)"
    r"|(?P<punct>%s)"
    r"|(?P<int>0[xX]_*[0-9a-fA-F][0-9a-fA-F_]*[lL]?|(?!0[xX])\d[\d_]*[lL]?)"
    r"|(?P<badhex>0[xX]_*[lL]?)"
    r"|(?P<uword>[\w$]+))?"
    % "|".join(re.escape(punct) for punct in sorted(PUNCTUATION, key=len, reverse=True))
)
_STRING_RUN = re.compile(r"[^\"\\\n]*")


def _error(message, source, offset):
    line = source.count("\n", 0, offset) + 1
    return LexError(message, line, offset - source.rfind("\n", 0, offset))


def _literal_limit(cap, line):
    return ResourceLimitError("literal-chars", cap + 1, cap, "string literal at line %d" % line)


def _scan_string(source, start, line, max_literal):
    """Decode the string literal opening at ``start``; return its value
    and end offset.  The budget fires as soon as the decoded length
    passes ``max_literal``, before any later error in the literal: the
    check after each run also covers the escape before it."""
    parts = []
    length = 0
    pos = start + 1
    while True:
        run_end = _STRING_RUN.match(source, pos).end()
        length += run_end - pos
        if max_literal and length > max_literal:
            raise _literal_limit(max_literal, line)
        parts.append(source[pos:run_end])
        pos = run_end
        char = source[pos : pos + 1]
        if char == '"':
            return "".join(parts), pos + 1
        if not char:
            raise _error("unterminated string literal", source, pos)
        if char == "\n":
            raise _error("newline in string literal", source, pos)
        escape = source[pos + 1 : pos + 2]
        if escape not in _ESCAPES:
            raise _error("unknown escape sequence \\%s" % escape, source, pos + 1)
        parts.append(_ESCAPES[escape])
        length += 1
        pos += 2


def _scan_char(source, start):
    """Decode the char literal opening at ``start``; return its value
    and end offset.  Any one character but a backslash stands for
    itself, a quote and a raw newline included."""
    pos = start + 1
    value = source[pos : pos + 1]
    if value == "\\":
        escape = source[pos + 1 : pos + 2]
        if escape not in _ESCAPES:
            raise _error("unknown escape sequence \\%s" % escape, source, pos + 1)
        value = _ESCAPES[escape]
        pos += 2
    else:
        pos += len(value)
    if source[pos : pos + 1] != "'":
        raise _error("unterminated char literal", source, pos)
    return value, pos + 1


def tokenize(source, limits=None):
    """Tokenize ``source`` and return the token list, ending with EOF.

    When ``limits`` (a :class:`repro.resilience.limits.ResourceLimits`)
    is given, the source-size, token-count and literal-length budgets
    are enforced, and a breach raises a typed ``ResourceLimitError`` —
    callers quarantine it like any other frontend failure.
    """
    max_tokens = max_literal = 0
    if limits:
        limits.check("max_source_chars", "source-chars", len(source), "lexer input")
        max_tokens = limits.cap("max_tokens")
        max_literal = limits.cap("max_literal_chars")
    tokens = []
    append = tokens.append
    # Token(...) runs namedtuple's Python-level __new__; building the
    # tuple directly makes the same Token in half the time.
    new = tuple.__new__
    match = _MASTER.match
    end = len(source)
    pos = 0
    line, line_start = 1, 0
    newline = source.find("\n")
    while True:
        found = match(source, pos)
        group = found.lastgroup
        start = found.start(group) if group else found.end()
        if group == "comment":
            close = source.find("*/", start + 2)
            if close < 0:
                raise _error("unterminated block comment", source, end)
            pos = close + 2
            continue
        while 0 <= newline < start:
            line += 1
            line_start = newline + 1
            newline = source.find("\n", line_start)
        column = start - line_start + 1
        if group is None:
            if start == end:
                append(new(Token, (EOF, "", line, column)))
                return tokens
            char = source[start]
            if char == '"':
                value, pos = _scan_string(source, start, line, max_literal)
                append(new(Token, (STRING_LIT, value, line, column)))
            elif char == "'":
                value, pos = _scan_char(source, start)
                append(new(Token, (CHAR_LIT, value, line, column)))
            else:
                raise _error("unexpected character %r" % char, source, start)
        else:
            pos = found.end()
            text = source[start:pos]
            if group == "word":
                append(new(Token, (_WORD_KINDS.get(text, IDENT), text, line, column)))
            elif group == "punct":
                append(new(Token, (PUNCT, text, line, column)))
            elif group == "int":
                append(new(Token, (INT_LIT, text, line, column)))
            elif group == "badhex":
                raise _error("malformed number literal %r" % text, source, start)
            elif text[0].isalpha():
                append(new(Token, (IDENT, text, line, column)))
            else:
                raise _error("unexpected character %r" % text[0], source, start)
        if max_tokens and len(tokens) > max_tokens:
            raise ResourceLimitError("token-count", len(tokens), max_tokens, "line %d" % line)
