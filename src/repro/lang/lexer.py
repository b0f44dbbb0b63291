"""Hand-written lexer for the ECL language (C subset + ECL keywords).

The lexer operates on already-preprocessed text (see
:mod:`repro.lang.preprocessor`) and produces a list of :class:`Token`
records ending in a single EOF token.  It understands:

* identifiers and keywords (C + ECL; see :mod:`repro.lang.tokens`),
* decimal, octal and hexadecimal integer literals with ``u``/``l`` suffixes,
* character literals with the usual C escapes,
* string literals,
* all C punctuators used by the supported subset,
* ``//`` and ``/* ... */`` comments and whitespace (skipped).

The paper's figures use a typographic tilde (``˜``); the lexer accepts it as
``~`` so the listings can be compiled verbatim.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .source import SourceBuffer
from .tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_DIGITS = frozenset("0123456789")

#: Whitespace, line comments and closed block comments, in any mix.
_TRIVIA = re.compile(r"(?:[ \t\r\n\f\v]+|//[^\n]*|/\*.*?\*/)*", re.S)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEC_DIGITS = re.compile(r"[0-9]*")
_OCT_DIGITS = re.compile(r"[0-7]*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
_INT_SUFFIX = re.compile(r"[uUlL]*")

#: Punctuators by first character, longest first within each entry.
_PUNCT_BY_FIRST = {}
for _punct in PUNCTUATORS:
    _PUNCT_BY_FIRST.setdefault(_punct[0], []).append(_punct)
del _punct

_ESCAPES = {
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

#: Unicode characters normalized before lexing (the paper's PDF glyphs).
_NORMALIZE = {"˜": "~", "∼": "~", "‘": "'", "’": "'"}


class Lexer:
    """Tokenizes one source buffer."""

    def __init__(self, text, filename="<string>"):
        for src, dst in _NORMALIZE.items():
            text = text.replace(src, dst)
        self.buffer = SourceBuffer(text, filename)
        self.text = text
        self.pos = 0

    def tokenize(self):
        """Return the full token list, ending with one EOF token."""
        tokens = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # ------------------------------------------------------------------
    # Internals

    def _error(self, message, start):
        raise LexError(message, self.buffer.span(start, self.pos))

    def _peek(self, offset=0):
        index = self.pos + offset
        if index < len(self.text):
            return self.text[index]
        return ""

    def _skip_trivia(self):
        """Skip whitespace and comments; error on unterminated comments."""
        text = self.text
        self.pos = _TRIVIA.match(text, self.pos).end()
        if text.startswith("/*", self.pos):
            start = self.pos
            self.pos = len(text)
            self._error("unterminated block comment", start)

    def _next_token(self):
        self._skip_trivia()
        start = self.pos
        text = self.text
        if start >= len(text):
            span = self.buffer.span(start, start)
            return Token(TokenKind.EOF, None, span)
        char = text[start]
        if char in _IDENT_START:
            return self._lex_ident(start)
        if char in _DIGITS:
            return self._lex_number(start)
        if char == "'":
            return self._lex_char(start)
        if char == '"':
            return self._lex_string(start)
        return self._lex_punct(start)

    def _lex_ident(self, start):
        self.pos = end = _IDENT.match(self.text, start).end()
        text = self.text[start:end]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, self.buffer.span(start, end), text)

    def _lex_number(self, start):
        text = self.text
        if text.startswith(("0x", "0X"), start):
            digit_start = start + 2
            self.pos = _HEX_DIGITS.match(text, digit_start).end()
            if self.pos == digit_start:
                self._error("hexadecimal literal with no digits", start)
            value = int(text[digit_start:self.pos], 16)
        elif text[start] == "0" and self._peek(1) in _DIGITS:
            digit_start = start + 1
            self.pos = _OCT_DIGITS.match(text, digit_start).end()
            if self._peek() in ("8", "9"):
                self._error("invalid digit in octal literal", start)
            value = int(text[digit_start:self.pos], 8)
        else:
            self.pos = _DEC_DIGITS.match(text, start).end()
            if self._peek() == ".":
                self._error("floating-point literals are not supported", start)
            value = int(text[start:self.pos])
        # Integer suffixes are accepted and ignored (sizes come from types).
        self.pos = _INT_SUFFIX.match(text, self.pos).end()
        spelling = text[start:self.pos]
        return Token(
            TokenKind.INT_LITERAL, value, self.buffer.span(start, self.pos), spelling
        )

    def _read_escape(self, start):
        """Consume one (possibly escaped) character, return its value."""
        char = self._peek()
        if char == "":
            self._error("unterminated literal", start)
        if char != "\\":
            self.pos += 1
            return char
        self.pos += 1
        escape = self._peek()
        if escape == "":
            self._error("unterminated escape sequence", start)
        if escape == "x":
            self.pos += 1
            digits = ""
            while self._peek() in "0123456789abcdefABCDEF" and self._peek() != "":
                digits += self._peek()
                self.pos += 1
            if not digits:
                self._error("\\x escape with no digits", start)
            return chr(int(digits, 16) & 0xFF)
        if escape in _ESCAPES:
            self.pos += 1
            return _ESCAPES[escape]
        self._error("unknown escape sequence '\\%s'" % escape, start)

    def _lex_char(self, start):
        self.pos += 1  # opening quote
        value = self._read_escape(start)
        if self._peek() != "'":
            self._error("unterminated character literal", start)
        self.pos += 1
        return Token(
            TokenKind.CHAR_LITERAL,
            ord(value),
            self.buffer.span(start, self.pos),
            self.text[start:self.pos],
        )

    def _lex_string(self, start):
        self.pos += 1  # opening quote
        chars = []
        while True:
            char = self._peek()
            if char == "" or char == "\n":
                self._error("unterminated string literal", start)
            if char == '"':
                self.pos += 1
                break
            chars.append(self._read_escape(start))
        return Token(
            TokenKind.STRING_LITERAL,
            "".join(chars),
            self.buffer.span(start, self.pos),
            self.text[start:self.pos],
        )

    def _lex_punct(self, start):
        for punct in _PUNCT_BY_FIRST.get(self.text[start], ()):
            if self.text.startswith(punct, start):
                self.pos += len(punct)
                return Token(
                    TokenKind.PUNCT, punct, self.buffer.span(start, self.pos), punct
                )
        char = self.text[self.pos]
        self.pos += 1
        self._error("unexpected character %r" % char, start)


def tokenize(text, filename="<string>"):
    """Convenience wrapper: lex ``text`` into a token list."""
    return Lexer(text, filename).tokenize()
