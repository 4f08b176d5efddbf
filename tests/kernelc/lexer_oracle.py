"""The character-by-character lexer, kept as the oracle of
:mod:`repro.kernelc.lexer`.

It scans one character at a time, tries every punctuator in turn and
decodes literals by hand: slow, and easy to read against the C rules.
``test_lexer_differential.py`` holds the one-pattern scanner in ``src/``
to the tokens and diagnostics this one produces.
"""

from __future__ import annotations

from typing import List, Optional

from repro.kernelc.diagnostics import DiagnosticSink
from repro.kernelc.source import SourceFile
from repro.kernelc.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

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


class Lexer:
    def __init__(self, source: SourceFile, sink: Optional[DiagnosticSink] = None):
        self.source = source
        self.text = source.text
        self.pos = 0
        self.sink = sink if sink is not None else DiagnosticSink(source)

    # -- helpers ---------------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        # Returns NUL at end-of-input: unlike "", it is never a member of
        # character-class strings like "uUlL", avoiding `"" in s` pitfalls.
        index = self.pos + ahead
        return self.text[index] if index < len(self.text) else "\0"

    def _make(self, kind: TokenKind, start: int, value=None, suffix: str = "") -> Token:
        return Token(kind, self.text[start : self.pos], self.source.span(start, self.pos), value, suffix)

    def _error(self, message: str, start: int) -> None:
        self.sink.error(message, self.source.span(start, max(self.pos, start + 1)))

    # -- scanning --------------------------------------------------------

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            token = self.next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n\f\v":
                self.pos += 1
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self.pos += 1
            elif ch == "/" and self._peek(1) == "*":
                start = self.pos
                self.pos += 2
                while self.pos < len(self.text) and not (self.text[self.pos] == "*" and self._peek(1) == "/"):
                    self.pos += 1
                if self.pos >= len(self.text):
                    self._error("unterminated block comment", start)
                    return
                self.pos += 2
            else:
                return

    def next_token(self) -> Token:
        self._skip_trivia()
        start = self.pos
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", self.source.span(start, start))

        ch = self.text[self.pos]
        if ch.isalpha() or ch == "_":
            return self._lex_identifier(start)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._lex_number(start)
        if ch == "'":
            return self._lex_char(start)
        if ch == '"':
            return self._lex_string(start)
        for punct in PUNCTUATORS:
            if self.text.startswith(punct, self.pos):
                self.pos += len(punct)
                return self._make(TokenKind.PUNCT, start)
        self.pos += 1
        self._error(f"unexpected character {ch!r}", start)
        return self.next_token()

    def _lex_identifier(self, start: int) -> Token:
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        text = self.text[start : self.pos]
        if text in KEYWORDS:
            if text == "true":
                return Token(TokenKind.INT_LITERAL, text, self.source.span(start, self.pos), 1)
            if text == "false":
                return Token(TokenKind.INT_LITERAL, text, self.source.span(start, self.pos), 0)
            return self._make(TokenKind.KEYWORD, start)
        return self._make(TokenKind.IDENT, start)

    def _lex_number(self, start: int) -> Token:
        text = self.text
        is_float = False
        if text.startswith(("0x", "0X"), self.pos):
            self.pos += 2
            digit_start = self.pos
            while self.pos < len(text) and text[self.pos] in "0123456789abcdefABCDEF":
                self.pos += 1
            if self.pos == digit_start:
                self._error("missing digits in hexadecimal literal", start)
                return self._make(TokenKind.INT_LITERAL, start, 0)
            value = int(text[start + 2 : self.pos], 16)
            suffix = self._lex_int_suffix()
            return self._make(TokenKind.INT_LITERAL, start, value, suffix)

        while self.pos < len(text) and text[self.pos].isdigit():
            self.pos += 1
        if self._peek() == "." and self._peek(1) != ".":
            is_float = True
            self.pos += 1
            while self.pos < len(text) and text[self.pos].isdigit():
                self.pos += 1
        if self._peek() in "eE" and (self._peek(1).isdigit() or (self._peek(1) in "+-" and self._peek(2).isdigit())):
            is_float = True
            self.pos += 1
            if self._peek() in "+-":
                self.pos += 1
            while self.pos < len(text) and text[self.pos].isdigit():
                self.pos += 1

        body = text[start : self.pos]
        if is_float:
            suffix = ""
            if self._peek() in "fF":
                suffix = "f"
                self.pos += 1
            elif self._peek() in "lL":
                suffix = "l"
                self.pos += 1
            return self._make(TokenKind.FLOAT_LITERAL, start, float(body), suffix)
        # Octal literals (leading 0) decode as octal like C.
        if len(body) > 1 and body[0] == "0" and all(c in "01234567" for c in body[1:]):
            value = int(body, 8)
        else:
            value = int(body, 10)
        suffix = self._lex_int_suffix()
        return self._make(TokenKind.INT_LITERAL, start, value, suffix)

    def _lex_int_suffix(self) -> str:
        suffix = ""
        while self._peek() in "uUlL":
            suffix += self.text[self.pos].lower()
            self.pos += 1
        return suffix

    def _lex_escape(self, start: int) -> str:
        # Caller consumed the backslash.
        if self.pos >= len(self.text):
            self._error("unterminated escape sequence", start)
            return ""
        ch = self._peek()
        self.pos += 1
        if ch == "x":
            digits = ""
            while self._peek() in "0123456789abcdefABCDEF":
                digits += self.text[self.pos]
                self.pos += 1
            if not digits:
                self._error("\\x used with no following hex digits", start)
                return ""
            return chr(int(digits, 16) & 0xFF)
        if ch in _SIMPLE_ESCAPES:
            return _SIMPLE_ESCAPES[ch]
        self._error(f"unknown escape sequence '\\{ch}'", start)
        return ch

    def _lex_char(self, start: int) -> Token:
        self.pos += 1  # opening quote
        if self._peek() == "\\":
            self.pos += 1
            decoded = self._lex_escape(start)
            value = ord(decoded) if decoded else 0
        elif self.pos < len(self.text) and self._peek() != "'":
            value = ord(self.text[self.pos])
            self.pos += 1
        else:
            self._error("empty character literal", start)
            value = 0
        if self._peek() == "'":
            self.pos += 1
        else:
            self._error("unterminated character literal", start)
        return self._make(TokenKind.CHAR_LITERAL, start, value)

    def _lex_string(self, start: int) -> Token:
        self.pos += 1  # opening quote
        parts: List[str] = []
        while self.pos < len(self.text) and self.text[self.pos] not in ('"', "\n"):
            if self.text[self.pos] == "\\":
                self.pos += 1
                parts.append(self._lex_escape(start))
            else:
                parts.append(self.text[self.pos])
                self.pos += 1
        if self._peek() == '"':
            self.pos += 1
        else:
            self._error("unterminated string literal", start)
        return self._make(TokenKind.STRING_LITERAL, start, "".join(parts))
