"""Lexer for MiniC: one compiled pattern, matched at each offset.

The lexer turns source text into a list of :class:`~repro.lang.tokens.Token`.
It supports ``//`` line comments and ``/* */`` block comments, decimal integer
and floating-point literals (with optional exponent), identifiers, keywords,
and the operator/punctuation set of MiniC.

``_TOKEN`` has one named group per lexical class, tried in order at each
offset: newline, blanks, line comment, block-comment opener, number,
identifier, operator (the multi-character ones longest first, so ``<<=``
beats ``<=`` beats ``<``), punctuation.  The loop dispatches on the group
that matched.  A digit is a Unicode decimal digit (``\\d``); an identifier
starts with a letter or ``_`` and goes on with letters, digits (any
``str.isalnum`` character) and ``_``.  A token's column is its offset from
the start of its line, plus one.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPS,
    PUNCT_CHARS,
    SINGLE_CHAR_OPS,
    Token,
    TokenType,
)

_TOKEN = re.compile(
    "|".join(
        [
            r"(?P<newline>\n)",
            r"(?P<blank>[ \t\r]+)",
            r"(?P<line_comment>//[^\n]*)",
            r"(?P<block_comment>/\*)",
            r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)",
            # \w less decimal digits; the loop refuses the non-letters left
            # (numerics such as '²' that are not decimal digits).
            r"(?P<ident>[^\W\d]\w*)",
            "(?P<op>"
            + "|".join(map(re.escape, MULTI_CHAR_OPS))
            + "|["
            + re.escape("".join(sorted(SINGLE_CHAR_OPS)))
            + "])",
            "(?P<punct>[" + re.escape("".join(sorted(PUNCT_CHARS))) + "])",
        ]
    )
)

_IDENT, _KEYWORD, _OP, _PUNCT = TokenType.IDENT, TokenType.KEYWORD, TokenType.OP, TokenType.PUNCT


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC *source*, returning tokens terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    line = 1
    line_start = 0  # offset of the current line's first character
    i = 0
    n = len(source)
    while i < n:
        m = match(source, i)
        if m is None:
            raise LexError(f"unexpected character {source[i]!r}", line=line)
        kind = m.lastgroup
        j = m.end()
        if kind == "blank":
            pass
        elif kind == "ident":
            text = m.group()
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"unexpected character {text[0]!r}", line=line)
            append(Token(_KEYWORD if text in KEYWORDS else _IDENT, text, line, i - line_start + 1))
        elif kind == "punct":
            append(Token(_PUNCT, m.group(), line, i - line_start + 1))
        elif kind == "op":
            append(Token(_OP, m.group(), line, i - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = j
        elif kind == "number":
            text = m.group()
            if j < n and (source[j].isalpha() or source[j] == "_"):
                raise LexError(f"invalid numeric literal {text + source[j]!r}", line=line)
            ttype = TokenType.INT_LIT if text.isdecimal() else TokenType.FLOAT_LIT
            append(Token(ttype, text, line, i - line_start + 1))
        elif kind == "block_comment":
            end = source.find("*/", j)
            if end == -1:
                raise LexError("unterminated block comment", line=line)
            newlines = source.count("\n", j, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", j, end) + 1
            j = end + 2
        i = j  # a line comment needs nothing else: its newline follows
    append(Token(TokenType.EOF, "", line, n - line_start + 1))
    return tokens
