"""The hand-written MiniC lexer: the oracle for the one-pattern lexer.

A character-at-a-time scanner with the library lexer's rules spelled out
one ``startswith`` or character test at a time.  Two rules differ from the
scanner it was before the library moved to a compiled pattern, and the
library lexer follows them too:

* a token's column is its offset from the start of its line, plus one
  (the old scanner restarted the column at 1 after a block comment and
  did not advance it over a line comment);
* a digit is a Unicode *decimal* digit (``str.isdecimal``), so ``٣`` is a
  digit but ``²`` is not (``str.isdigit`` let ``²`` through as an integer
  literal that ``int()`` then refused).
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPS,
    PUNCT_CHARS,
    SINGLE_CHAR_OPS,
    Token,
    TokenType,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC *source*, returning tokens terminated by an EOF token."""
    tokens: list[Token] = []
    line = 1
    line_start = 0
    i = 0
    n = len(source)

    def error(msg: str) -> LexError:
        return LexError(msg, line=line)

    while i < n:
        ch = source[i]

        # -- whitespace -------------------------------------------------
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue

        # -- comments ---------------------------------------------------
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise error("unterminated block comment")
            for k in range(i, end):
                if source[k] == "\n":
                    line += 1
                    line_start = k + 1
            i = end + 2
            continue

        col = i - line_start + 1

        # -- numbers ----------------------------------------------------
        if ch.isdecimal() or (ch == "." and i + 1 < n and source[i + 1].isdecimal()):
            j = i
            is_float = False
            while j < n and source[j].isdecimal():
                j += 1
            if j < n and source[j] == ".":
                is_float = True
                j += 1
                while j < n and source[j].isdecimal():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdecimal():
                    is_float = True
                    j = k
                    while j < n and source[j].isdecimal():
                        j += 1
            text = source[i:j]
            if j < n and (source[j].isalpha() or source[j] == "_"):
                raise error(f"invalid numeric literal {text + source[j]!r}")
            ttype = TokenType.FLOAT_LIT if is_float else TokenType.INT_LIT
            tokens.append(Token(ttype, text, line, col))
            i = j
            continue

        # -- identifiers and keywords ------------------------------------
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            ttype = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
            tokens.append(Token(ttype, text, line, col))
            i = j
            continue

        # -- multi-char operators ----------------------------------------
        op = next((op for op in MULTI_CHAR_OPS if source.startswith(op, i)), None)
        if op is not None:
            tokens.append(Token(TokenType.OP, op, line, col))
            i += len(op)
            continue

        # -- single-char operators and punctuation -----------------------
        if ch in SINGLE_CHAR_OPS:
            tokens.append(Token(TokenType.OP, ch, line, col))
            i += 1
            continue
        if ch in PUNCT_CHARS:
            tokens.append(Token(TokenType.PUNCT, ch, line, col))
            i += 1
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token(TokenType.EOF, "", line, n - line_start + 1))
    return tokens
