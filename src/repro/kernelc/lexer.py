"""Lexer for the OpenCL-C subset.

Produces a list of :class:`~repro.kernelc.tokens.Token`.  Comments are
skipped; newlines are not tokens (the preprocessor runs on raw lines
before lexing).  All errors are reported through a
:class:`~repro.kernelc.diagnostics.DiagnosticSink`.

One compiled pattern (:data:`_TOKEN`) recognizes every token with the
trivia before it, the end of input and every lexical error, and is
matched once per token; the alternative that matched (its group name)
says what to build.  Literals are decoded from the matched text
afterwards.  ``tests/kernelc/lexer_oracle.py`` is the
character-by-character scanner this one replaced: the tokens and
diagnostics of the two are held equal by
``tests/kernelc/test_lexer_differential.py``.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .diagnostics import DiagnosticSink
from .source import Location, SourceFile, Span
from .tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}

# One match is the trivia (whitespace and comments) before a token, then
# the token: the alternatives are tried in order, and the one that
# matched names the kind.  Identifiers start with a letter
# (``str.isalpha``, so non-ASCII letters too) or ``_`` and go on with
# ``\w`` (``str.isalnum`` or ``_``); ``[^\W\d]`` also admits numeric
# characters such as ``½``, which the ``name`` branch turns back into an
# error.  A hexadecimal literal without digits takes no suffix; a
# decimal point followed by a second one is no float; an exponent needs
# a digit.  A literal runs until its closing quote, a string's also
# until a newline; a backslash takes the next character (or a ``\x`` and
# its hex digits) with it.
_TOKEN = re.compile(
    r"""
    (?:[ \t\r\n\f\v]+|//[^\n]*|/\*.*?\*/)*
    (?:
      (?P<name>[^\W\d]\w*)
    | (?P<hex>0[xX](?:[0-9a-fA-F]+[uUlL]*)?)
    | (?P<float>(?:\d+\.(?!\.)\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fFlL]?)
    | (?P<int>\d+[uUlL]*)
    | (?P<char>'(?:\\(?:x[0-9a-fA-F]*|.)?|[^'\\])?'?)
    | (?P<string>"(?:[^"\\\n]|\\(?:x[0-9a-fA-F]*|.)?)*"?)
    | (?P<open_comment>/\*)
    | (?P<punct>""" + "|".join(map(re.escape, PUNCTUATORS)) + r""")
    | (?P<end>\Z)
    | (?P<error>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(x[0-9a-fA-F]*|.)?", re.DOTALL)
_STRING_RUN = re.compile(r'[^"\\\n]+')
_OCTAL = re.compile("0[0-7]+")
# Builds a position or token tuple without the Python frame of its
# NamedTuple constructor: the lexer makes four per token.
_new = tuple.__new__


class Lexer:
    def __init__(self, source: SourceFile, sink: Optional[DiagnosticSink] = None):
        self.source = source
        self.text = source.text
        self.sink = sink if sink is not None else DiagnosticSink(source)

    def _error(self, message: str, start: int, end: int) -> None:
        self.sink.error(message, self.source.span(start, end))

    def tokenize(self) -> List[Token]:
        text, source = self.text, self.source
        match = _TOKEN.match
        tokens: List[Token] = []
        append = tokens.append
        pos = 0
        # Tokens other than literals hold no newline: their spans are
        # made from the current line and where it starts.
        line, line_start = 1, 0
        while True:
            found = match(text, pos)
            kind = found.lastgroup
            start = found.start(kind)
            if start != pos:  # trivia
                newlines = text.count("\n", pos, start)
                if newlines:
                    line += newlines
                    line_start = text.rindex("\n", pos, start) + 1
            pos = found.end()
            lexeme = found.group(kind)
            if kind == "char" or kind == "string":
                append(self._char(lexeme, start) if kind == "char" else self._string(lexeme, start))
                if "\n" in lexeme:
                    line += lexeme.count("\n")
                    line_start = start + lexeme.rindex("\n") + 1
                continue
            span = _new(Span, (_new(Location, (line, start - line_start + 1, start)),
                               _new(Location, (line, pos - line_start + 1, pos))))
            if kind == "name":
                if lexeme in KEYWORDS:
                    if lexeme == "true" or lexeme == "false":
                        append(Token(TokenKind.INT_LITERAL, lexeme, span, int(lexeme == "true")))
                    else:
                        append(_new(Token, (TokenKind.KEYWORD, lexeme, span, None, "")))
                elif lexeme[0] >= "\x80" and not lexeme[0].isalpha():
                    pos = start + 1
                    self._error(f"unexpected character {lexeme[0]!r}", start, pos)
                else:
                    append(_new(Token, (TokenKind.IDENT, lexeme, span, None, "")))
            elif kind == "punct":
                append(_new(Token, (TokenKind.PUNCT, lexeme, span, None, "")))
            elif kind == "int":
                body = lexeme.rstrip("uUlL")
                value = int(body, 8) if _OCTAL.fullmatch(body) else int(body)
                append(Token(TokenKind.INT_LITERAL, lexeme, span, value,
                             lexeme[len(body):].lower()))
            elif kind == "float":
                suffix = lexeme[-1] if lexeme[-1] in "fFlL" else ""
                body = lexeme[:len(lexeme) - len(suffix)]
                append(Token(TokenKind.FLOAT_LITERAL, lexeme, span, float(body), suffix.lower()))
            elif kind == "hex":
                if len(lexeme) == 2:
                    self._error("missing digits in hexadecimal literal", start, pos)
                    append(Token(TokenKind.INT_LITERAL, lexeme, span, 0))
                else:
                    body = lexeme.rstrip("uUlL")
                    append(Token(TokenKind.INT_LITERAL, lexeme, span, int(body[2:], 16),
                                 lexeme[len(body):].lower()))
            elif kind == "end":  # after an unterminated comment too
                append(Token(TokenKind.EOF, "", source.span(start, start)))
                return tokens
            elif kind == "open_comment":
                pos = len(text)
                self._error("unterminated block comment", start, pos)
            else:
                self._error(f"unexpected character {lexeme!r}", start, pos)

    def _escape(self, sequence: Optional[str], start: int, end: int) -> str:
        """The character the escape ``\\sequence`` (None: a backslash at
        the end of input) of the literal at ``start`` denotes, the escape
        ending at ``end``."""
        if sequence is None:
            self._error("unterminated escape sequence", start, end)
            return ""
        if sequence[0] == "x":
            if len(sequence) == 1:
                self._error("\\x used with no following hex digits", start, end)
                return ""
            return chr(int(sequence[1:], 16) & 0xFF)
        decoded = _SIMPLE_ESCAPES.get(sequence)
        if decoded is None:
            self._error(f"unknown escape sequence '\\{sequence}'", start, end)
            return sequence
        return decoded

    def _char(self, lexeme: str, start: int) -> Token:
        if lexeme[1:2] == "\\":
            escape = _ESCAPE.match(lexeme, 1)
            end = escape.end()
            decoded = self._escape(escape.group(1), start, start + end)
            value = ord(decoded) if decoded else 0
        elif lexeme[1:2] not in ("", "'"):
            end, value = 2, ord(lexeme[1])
        else:
            end, value = 1, 0
            self._error("empty character literal", start, start + 1)
        if len(lexeme) == end:
            self._error("unterminated character literal", start, start + end)
        return Token(TokenKind.CHAR_LITERAL, lexeme, self.source.span(start, start + len(lexeme)),
                     value)

    def _string(self, lexeme: str, start: int) -> Token:
        parts: List[str] = []
        at = 1
        while at < len(lexeme) and lexeme[at] != '"':
            if lexeme[at] == "\\":
                escape = _ESCAPE.match(lexeme, at)
                at = escape.end()
                parts.append(self._escape(escape.group(1), start, start + at))
            else:
                run = _STRING_RUN.match(lexeme, at)
                at = run.end()
                parts.append(run.group())
        if at == len(lexeme):
            self._error("unterminated string literal", start, start + at)
        return Token(TokenKind.STRING_LITERAL, lexeme, self.source.span(start, start + len(lexeme)),
                     "".join(parts))


def tokenize(text: str, name: str = "<kernel>", sink: Optional[DiagnosticSink] = None) -> List[Token]:
    """Tokenize ``text``, raising :class:`CompileError` on lexical errors."""
    source = SourceFile(text, name)
    own_sink = sink if sink is not None else DiagnosticSink(source)
    tokens = Lexer(source, own_sink).tokenize()
    if sink is None:
        own_sink.check()
    return tokens
