"""Lexer unit tests, and the lexer against the hand-written reference."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_lexer
from test_compile_engine import _generated_cases

from repro.bench_programs.registry import all_benchmarks
from repro.corpus import generate_programs
from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.lang.tokens import MULTI_CHAR_OPS, SINGLE_CHAR_OPS, Token, TokenType


def kinds(src):
    return [(t.type, t.text) for t in tokenize(src)[:-1]]


class TestBasics:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].type is TokenType.EOF

    def test_identifier(self):
        assert kinds("foo_bar1") == [(TokenType.IDENT, "foo_bar1")]

    def test_keyword_vs_identifier(self):
        assert kinds("int inty")[0] == (TokenType.KEYWORD, "int")
        assert kinds("int inty")[1] == (TokenType.IDENT, "inty")

    def test_int_literal(self):
        assert kinds("42") == [(TokenType.INT_LIT, "42")]

    def test_float_literal(self):
        assert kinds("3.75") == [(TokenType.FLOAT_LIT, "3.75")]

    def test_float_exponent(self):
        assert kinds("1e3")[0][0] is TokenType.FLOAT_LIT
        assert kinds("2.5e-4")[0][0] is TokenType.FLOAT_LIT

    def test_all_keywords_tokenize_as_keywords(self):
        for kw in ("int", "float", "void", "if", "else", "for", "while",
                   "return", "break", "continue"):
            assert kinds(kw) == [(TokenType.KEYWORD, kw)]

    def test_multichar_operators_win_over_single(self):
        assert kinds("<=") == [(TokenType.OP, "<=")]
        assert kinds("==") == [(TokenType.OP, "==")]
        assert kinds("+=") == [(TokenType.OP, "+=")]
        assert kinds("++") == [(TokenType.OP, "++")]
        assert kinds("&&") == [(TokenType.OP, "&&")]

    def test_adjacent_operators(self):
        assert kinds("a<=b") == [
            (TokenType.IDENT, "a"),
            (TokenType.OP, "<="),
            (TokenType.IDENT, "b"),
        ]

    def test_punctuation(self):
        assert [k for k, _ in kinds("(){}[];,")] == [TokenType.PUNCT] * 8


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\nb") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_block_comment_skipped(self):
        assert kinds("a /* x */ b") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_multiline_block_comment_tracks_lines(self):
        toks = tokenize("a /* one\ntwo\nthree */ b")
        assert toks[1].line == 3

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestPositions:
    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]

    def test_column_numbers(self):
        toks = tokenize("ab cd")
        assert toks[0].col == 1
        assert toks[1].col == 4

    def test_column_after_block_comment(self):
        toks = tokenize("/* c */ int x;")
        assert [(t.text, t.line, t.col) for t in toks[:2]] == [("int", 1, 9), ("x", 1, 13)]

    def test_column_after_block_comment_ending_on_a_later_line(self):
        toks = tokenize("/* one\n   two */  x;")
        assert (toks[0].text, toks[0].line, toks[0].col) == ("x", 2, 12)

    def test_eof_column_after_line_comment(self):
        assert tokenize("a // c")[-1].col == 7


class TestUnicode:
    def test_letters_start_identifiers(self):
        assert kinds("é = x_é2") == [
            (TokenType.IDENT, "é"),
            (TokenType.OP, "="),
            (TokenType.IDENT, "x_é2"),
        ]

    def test_decimal_digits_are_digits(self):
        assert kinds("٣ ١.٥") == [(TokenType.INT_LIT, "٣"), (TokenType.FLOAT_LIT, "١.٥")]
        decl = parse_program("int f() { int é = ٣; return é; }").functions[0].body[0]
        assert decl.name == "é" and decl.init.value == 3

    def test_non_decimal_digit_is_a_lex_error(self):
        with pytest.raises(LexError, match="unexpected character '²'") as exc:
            parse_program("int f() {\n  int x = ²;\n  return x;\n}")
        assert exc.value.line == 2


class TestTokenValues:
    def test_equality_and_hash_by_value(self):
        a = Token(TokenType.IDENT, "x", 1, 2)
        b = Token(TokenType.IDENT, "x", 1, 2)
        assert a == b and hash(a) == hash(b)
        assert a != Token(TokenType.IDENT, "x", 1, 3)
        assert a != ("x", 1, 2)
        assert repr(a) == "Token(IDENT, 'x', L1:2)"


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_bad_numeric_literal(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    def test_error_carries_line(self):
        with pytest.raises(LexError) as exc:
            tokenize("ok\n@")
        assert exc.value.line == 2


class TestProperties:
    @given(st.integers(min_value=0, max_value=10**12))
    def test_integer_roundtrip(self, value):
        toks = tokenize(str(value))
        assert toks[0].type is TokenType.INT_LIT
        assert int(toks[0].text) == value

    @given(
        st.floats(
            min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
        )
    )
    def test_float_roundtrip(self, value):
        toks = tokenize(repr(value))
        assert toks[0].type in (TokenType.FLOAT_LIT, TokenType.INT_LIT)
        assert float(toks[0].text) == pytest.approx(value)

    @given(st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,20}", fullmatch=True))
    def test_identifier_roundtrip(self, name):
        toks = tokenize(name)
        assert len(toks) == 2
        assert toks[0].text == name


def _lex(tokenize_fn, source):
    """Every field of every token, or the error's type, message and line."""
    try:
        return [(t.type, t.text, t.line, t.col) for t in tokenize_fn(source)]
    except LexError as exc:
        return (type(exc), str(exc), exc.line)


_OPERATORS = " ".join(MULTI_CHAR_OPS + tuple(sorted(SINGLE_CHAR_OPS)))
_HAND_CASES = [
    "",
    "a // comment at end of file",
    "a /* comment at end of file */",
    "a\n// last line\n",
    "x = 1.;",
    "x = .5;",
    "x = 1e5 + 2.5E-3 + 7e+2;",
    "x = 1e+;",
    "x = 1x;",
    "x = 1.5.3;",
    _OPERATORS,
    "".join(MULTI_CHAR_OPS),
    "a<<=b>>=c<=d//e\n/=f/g/*h*/%=i",
    "(){}[];,",
    "a /* never closed",
    "a\n  /* never\n closed",
    "a $ b",
    "ok\n  . 5",
    "int é = 1;",
    "int x = ٣;",
    "int x = ²;",
    "x = 1²;",
    "x = ½;",
    "x²y = 2;",
    "\tint\r\n  x;\n/* a\n b */  y /* c */ z",
]


@pytest.mark.parametrize("source", _HAND_CASES)
def test_hand_case_matches_reference(source):
    assert _lex(tokenize, source) == _lex(reference_lexer.tokenize, source)


@given(st.text(alphabet="ax_09.eE+-*/%<>=!&|(){}[];, \t\r\néμ٣²½$", max_size=40))
def test_random_text_matches_reference(source):
    assert _lex(tokenize, source) == _lex(reference_lexer.tokenize, source)


def test_every_operator_is_one_token():
    toks = tokenize(_OPERATORS)[:-1]
    assert [t.text for t in toks] == _OPERATORS.split()
    assert {t.type for t in toks} == {TokenType.OP}


@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda spec: spec.name)
def test_registry_source_matches_reference(spec):
    source = spec.program.source
    assert _lex(tokenize, source) == _lex(reference_lexer.tokenize, source)


def test_generated_and_corpus_sources_match_reference():
    sources = [source for _, source in _generated_cases()]
    sources += [tp.source for tp in generate_programs(500, seed=1, adversarial=True)]
    for source in sources:
        assert _lex(tokenize, source) == _lex(reference_lexer.tokenize, source), source
