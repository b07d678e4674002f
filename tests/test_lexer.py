"""Unit tests for the Java-subset lexer."""

import pytest

from repro.java.errors import LexError
from repro.java.lexer import tokenize
from repro.java.tokens import (
    BOOL_LIT,
    CHAR_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    NULL_LIT,
    PUNCT,
    STRING_LIT,
)


def kinds_of(source):
    return [token.kind for token in tokenize(source)[:-1]]


def values_of(source):
    return [token.value for token in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == EOF

    def test_identifier(self):
        tokens = tokenize("foo")
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "foo"

    def test_identifier_with_digits_underscore_dollar(self):
        assert values_of("a1 _x $y x$2") == ["a1", "_x", "$y", "x$2"]
        assert kinds_of("a1 _x $y x$2") == [IDENT] * 4

    def test_keywords_are_recognized(self):
        assert kinds_of("class interface while if return") == [KEYWORD] * 5

    def test_boolean_literals(self):
        assert kinds_of("true false") == [BOOL_LIT, BOOL_LIT]

    def test_null_literal(self):
        assert kinds_of("null") == [NULL_LIT]

    def test_int_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind == INT_LIT
        assert tokens[0].value == "42"

    def test_hex_literal(self):
        assert values_of("0xFF") == ["0xFF"]

    def test_long_suffix(self):
        assert values_of("10L 7l") == ["10L", "7l"]

    def test_underscore_in_number(self):
        assert values_of("1_000") == ["1_000"]

    @pytest.mark.parametrize(
        "source, message, column",
        [
            ("0x", "malformed number literal '0x'", 1),
            ("0x_", "malformed number literal '0x_'", 1),
            ("0xL", "malformed number literal '0xL'", 1),
            ("x = 0X;", "malformed number literal '0X'", 5),
            ("\u00b2", "unexpected character '\u00b2'", 1),
            ("1\u00b2", "unexpected character '\u00b2'", 2),
            ("x = \u2460;", "unexpected character '\u2460'", 5),
        ],
    )
    def test_literal_int_cannot_read_is_a_lex_error(self, source, message, column):
        # Every INT_LIT must be readable by int(): these used to lex and
        # then crash the parser with an untyped ValueError.
        with pytest.raises(LexError) as excinfo:
            tokenize(source)
        error = excinfo.value
        assert (type(error), error.message, error.line, error.column) == (
            LexError, message, 1, column,
        )


class TestStringsAndChars:
    def test_string_literal(self):
        tokens = tokenize('"hello"')
        assert tokens[0].kind == STRING_LIT
        assert tokens[0].value == "hello"

    def test_string_escapes(self):
        tokens = tokenize(r'"a\nb\t\"q\"\\"')
        assert tokens[0].value == 'a\nb\t"q"\\'

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')

    def test_char_literal(self):
        tokens = tokenize("'x'")
        assert tokens[0].kind == CHAR_LIT
        assert tokens[0].value == "x"

    def test_char_escape(self):
        tokens = tokenize(r"'\n'")
        assert tokens[0].value == "\n"

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'ab'")

    def test_unknown_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')


class TestComments:
    def test_line_comment_skipped(self):
        assert values_of("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values_of("a /* x\n y */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* oops")

    def test_comment_at_eof(self):
        assert values_of("a //tail") == ["a"]


class TestPunctuation:
    def test_maximal_munch_on_shifts(self):
        assert values_of("a >>> b >> c > d") == [
            "a", ">>>", "b", ">>", "c", ">", "d",
        ]

    def test_compound_assignment_operators(self):
        assert values_of("+= -= *= /= %=") == ["+=", "-=", "*=", "/=", "%="]

    def test_logical_operators(self):
        assert values_of("&& || ! & |") == ["&&", "||", "!", "&", "|"]

    def test_increment_decrement(self):
        assert values_of("++ --") == ["++", "--"]

    def test_annotation_at_sign(self):
        tokens = tokenize("@Perm")
        assert tokens[0].kind == PUNCT and tokens[0].value == "@"
        assert tokens[1].value == "Perm"

    def test_unknown_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a # b")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_columns_after_tabs_count_characters(self):
        tokens = tokenize("\tx")
        assert tokens[0].column == 2


class TestRealisticSnippet:
    def test_method_header(self):
        source = "Iterator<Integer> createColIter() { return entries.iterator(); }"
        values = values_of(source)
        assert values[0] == "Iterator"
        assert "<" in values and ">" in values
        assert "return" in values
        assert values.count("(") == 2

    def test_token_count_of_figure2(self):
        source = '@Perm(requires="full(this) in HASNEXT") T next();'
        tokens = tokenize(source)
        kinds = [token.kind for token in tokens]
        assert STRING_LIT in kinds
        assert kinds[-1] == EOF
