"""Token definitions for the MiniC lexer."""

from __future__ import annotations

import enum


class TokenType(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"
    INT_LIT = "int"
    FLOAT_LIT = "float"
    KEYWORD = "keyword"
    OP = "op"
    PUNCT = "punct"
    EOF = "eof"


#: Reserved words of MiniC.  ``int``/``float``/``void`` are the only types.
KEYWORDS = frozenset(
    {
        "int",
        "float",
        "void",
        "if",
        "else",
        "for",
        "while",
        "return",
        "break",
        "continue",
    }
)

#: Multi-character operators, longest first so the lexer can match greedily.
MULTI_CHAR_OPS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "++",
    "--",
)

#: Single-character operators.
SINGLE_CHAR_OPS = frozenset("+-*/%<>=!&|")

#: Punctuation characters.
PUNCT_CHARS = frozenset("(){}[];,")


class Token:
    """A single lexical token with its 1-based source position.

    A value: tokens compare and hash by type, text, line and column, and
    nothing assigns to one after the lexer builds it.  ``__slots__`` and a
    plain ``__init__`` make the lexer's one construction per token cheap.
    """

    __slots__ = ("type", "text", "line", "col")

    def __init__(self, type: TokenType, text: str, line: int, col: int) -> None:
        self.type = type
        self.text = text
        self.line = line
        self.col = col

    def _key(self) -> tuple[TokenType, str, int, int]:
        return (self.type, self.text, self.line, self.col)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.text!r}, L{self.line}:{self.col})"
