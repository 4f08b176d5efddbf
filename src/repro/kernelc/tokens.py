"""Token definitions for the OpenCL-C subset."""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Union

from .source import Span


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT_LITERAL = "integer literal"
    FLOAT_LITERAL = "float literal"
    CHAR_LITERAL = "character literal"
    STRING_LITERAL = "string literal"
    PUNCT = "punctuator"
    EOF = "end of input"


# Keywords of the supported OpenCL-C subset.  Address-space and access
# qualifiers are keywords both with and without the leading underscores,
# as in OpenCL 1.x.
KEYWORDS = frozenset(
    [
        "void",
        "bool",
        "char",
        "uchar",
        "short",
        "ushort",
        "int",
        "uint",
        "long",
        "ulong",
        "float",
        "double",
        "half",
        "size_t",
        "ptrdiff_t",
        "signed",
        "unsigned",
        "const",
        "volatile",
        "restrict",
        "struct",
        "typedef",
        "if",
        "else",
        "for",
        "while",
        "do",
        "return",
        "break",
        "continue",
        "switch",
        "case",
        "default",
        "goto",
        "sizeof",
        "true",
        "false",
        "__kernel",
        "kernel",
        "__global",
        "global",
        "__local",
        "local",
        "__constant",
        "constant",
        "__private",
        "private",
        "__attribute__",
        "inline",
        "static",
    ]
)

# Vector type names: base type x width for widths 2, 3, 4, 8, 16.
VECTOR_BASE_TYPES = ("char", "uchar", "short", "ushort", "int", "uint", "long", "ulong", "float", "double")
VECTOR_WIDTHS = (2, 3, 4, 8, 16)
VECTOR_TYPE_NAMES = frozenset(f"{base}{width}" for base in VECTOR_BASE_TYPES for width in VECTOR_WIDTHS)

# All punctuators, longest first: the lexer's pattern tries them in this
# order, so the one it matches is the longest (maximal munch).
PUNCTUATORS = (
    "<<=",
    ">>=",
    "...",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ";",
    ",",
    ".",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "&",
    "|",
    "^",
    "~",
    "!",
    "?",
    ":",
)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    span: Span
    # Decoded value for literals: int for INT/CHAR, float for FLOAT,
    # str for STRING.  ``suffix`` keeps literal suffixes (u, f, l, ...)
    # so the parser can type the literal.
    value: Optional[Union[int, float, str]] = None
    suffix: str = ""

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_punct(self, *names: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text in names

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<eof>"
        return self.text
