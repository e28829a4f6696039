"""Tests for the C tokenizer."""

import pytest

from repro.errors import LexerError
from repro.frontend.lexer import TokenKind, tokenize


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def texts(src):
    return [t.text for t in tokenize(src)[:-1]]


class TestBasics:
    def test_empty_source_gives_eof(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == TokenKind.EOF

    def test_identifiers_and_keywords(self):
        toks = tokenize("int foo _bar baz2")
        assert toks[0].kind == TokenKind.KEYWORD
        assert [t.kind for t in toks[1:4]] == [TokenKind.IDENT] * 3

    def test_underscore_bool_is_keyword(self):
        assert tokenize("_Bool")[0].kind == TokenKind.KEYWORD

    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)


class TestNumbers:
    def test_decimal_int(self):
        t = tokenize("42")[0]
        assert t.kind == TokenKind.INT_LIT and t.value == 42

    def test_hex_int(self):
        t = tokenize("0x1F")[0]
        assert t.value == 31

    def test_octal_int(self):
        t = tokenize("017")[0]
        assert t.value == 15

    def test_invalid_octal_int_raises(self):
        # '08' is no octal literal: a located LexerError, not ValueError.
        with pytest.raises(LexerError, match="invalid octal literal '08'"):
            tokenize("08")

    def test_unsigned_suffix(self):
        t = tokenize("42u")[0]
        assert t.value == 42 and "u" in t.suffix

    def test_float_with_point(self):
        t = tokenize("3.25")[0]
        assert t.kind == TokenKind.FLOAT_LIT and t.value == 3.25

    def test_float_with_exponent(self):
        t = tokenize("1e3")[0]
        assert t.kind == TokenKind.FLOAT_LIT and t.value == 1000.0

    def test_float_f_suffix(self):
        t = tokenize("1.5f")[0]
        assert t.kind == TokenKind.FLOAT_LIT and "f" in t.suffix

    def test_leading_dot_float(self):
        t = tokenize(".5")[0]
        assert t.kind == TokenKind.FLOAT_LIT and t.value == 0.5

    def test_negative_exponent(self):
        t = tokenize("2.5e-3")[0]
        assert abs(t.value - 0.0025) < 1e-12


class TestPunctuation:
    def test_multi_char_operators(self):
        assert texts("a <<= b >>= c") == ["a", "<<=", "b", ">>=", "c"]

    def test_two_char_operators(self):
        assert texts("a<=b>=c==d!=e&&f||g") == [
            "a", "<=", "b", ">=", "c", "==", "d", "!=", "e", "&&", "f", "||", "g"
        ]

    def test_increment_vs_plus(self):
        assert texts("a++ + ++b") == ["a", "++", "+", "++", "b"]

    def test_arrow(self):
        assert texts("p->x") == ["p", "->", "x"]

    def test_unknown_character_raises(self):
        with pytest.raises(LexerError):
            tokenize("a @ b")


class TestCommentsAndStrings:
    def test_line_comment_skipped(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x */ b") == ["a", "b"]

    def test_multiline_block_comment_line_numbers(self):
        toks = tokenize("/* line1\nline2 */ x")
        assert toks[0].line == 2

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("/* never ends")

    def test_char_literal(self):
        t = tokenize("'A'")[0]
        assert t.kind == TokenKind.CHAR_LIT and t.value == 65

    def test_char_escape(self):
        assert tokenize(r"'\n'")[0].value == 10
        assert tokenize(r"'\0'")[0].value == 0

    def test_string_literal(self):
        t = tokenize('"hello"')[0]
        assert t.kind == TokenKind.STRING_LIT and t.value == "hello"


class TestLineMarkers:
    def test_line_marker_resets_position(self):
        toks = tokenize('# 100 "other.c"\nx')
        assert toks[0].line == 100
        assert toks[0].filename == "other.c"
