"""Lexer tests."""

import pytest

from repro.lang.errors import UCSyntaxError
from repro.lang.lexer import tokenize


def kinds(src):
    return [(t.kind, t.value) for t in tokenize(src)[:-1]]


class TestBasics:
    def test_identifiers_and_keywords(self):
        toks = kinds("par foo int index_set st others")
        assert toks == [
            ("keyword", "par"),
            ("id", "foo"),
            ("keyword", "int"),
            ("keyword", "index_set"),
            ("keyword", "st"),
            ("keyword", "others"),
        ]

    def test_hyphenated_index_set_spelling(self):
        assert kinds("index-set")[0] == ("keyword", "index_set")

    def test_index_minus_set_needs_adjacency(self):
        # 'index - set' is subtraction of identifiers, not the keyword
        toks = kinds("index - set")
        assert toks[0] == ("id", "index")
        assert toks[1] == ("punct", "-")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)


class TestNumbers:
    def test_decimal(self):
        assert kinds("42") == [("int", 42)]

    def test_hex_and_octal(self):
        assert kinds("0x1F 010") == [("int", 31), ("int", 8)]

    @pytest.mark.parametrize("text", ["08", "09", "0189", "0x", "0xg"])
    def test_malformed_literal_is_a_diagnostic(self, text):
        """Not the ``ValueError`` of ``int(text, 8)``: a located UC error."""
        from repro.lang.parser import parse_program

        with pytest.raises(UCSyntaxError) as err:
            tokenize(f"x =\n  {text};")
        what = "hexadecimal" if text.startswith("0x") else "octal"
        assert f"invalid {what} literal" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 3)
        with pytest.raises(UCSyntaxError, match="invalid"):
            parse_program(f"int a[4];\nmain {{ a[0] = {text}; }}")

    def test_float_forms(self):
        assert kinds("1.5")[0] == ("float", 1.5)
        assert kinds("1e3")[0] == ("float", 1000.0)
        assert kinds("2.5e-1")[0] == ("float", 0.25)
        assert kinds(".5")[0] == ("float", 0.5)

    def test_range_dots_not_float(self):
        """'0..9' in an index-set definition must not lex as floats."""
        toks = kinds("0..9")
        assert toks == [("int", 0), ("punct", ".."), ("int", 9)]

    def test_range_after_expression(self):
        toks = kinds("{N-1..2*N}")
        values = [t[1] for t in toks]
        assert ".." in values


class TestStringsAndChars:
    def test_string(self):
        assert kinds('"hi"') == [("string", "hi")]

    def test_string_escapes(self):
        assert kinds(r'"a\nb\t\"q\""') == [("string", 'a\nb\t"q"')]

    def test_char_literal(self):
        assert kinds("'A'") == [("char", 65)]

    def test_char_escape(self):
        assert kinds(r"'\n'") == [("char", 10)]

    def test_unterminated_string(self):
        with pytest.raises(UCSyntaxError):
            tokenize('"abc')

    def test_unknown_escape(self):
        with pytest.raises(UCSyntaxError):
            tokenize(r'"\q"')


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(UCSyntaxError):
            tokenize("/* never ends")

    def test_preprocessor_lines_skipped(self):
        assert kinds("#define N 32\na") == [("id", "a")]


class TestOperators:
    def test_multichar_punct(self):
        toks = [t[1] for t in kinds("== != <= >= && || << >> += -=")]
        assert toks == ["==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-="]

    @pytest.mark.parametrize(
        "text,op",
        [
            ("$+", "add"),
            ("$*", "mul"),
            ("$&&", "logand"),
            ("$||", "logor"),
            ("$^", "logxor"),
            ("$>", "max"),
            ("$<", "min"),
            ("$,", "arbitrary"),
        ],
    )
    def test_reduction_operators(self, text, op):
        assert kinds(text) == [("redop", op)]

    def test_bad_reduction_operator(self):
        with pytest.raises(UCSyntaxError):
            tokenize("$%")

    def test_unexpected_character(self):
        with pytest.raises(UCSyntaxError):
            tokenize("a @ b")

    def test_inf_keyword(self):
        assert kinds("INF") == [("keyword", "INF")]
