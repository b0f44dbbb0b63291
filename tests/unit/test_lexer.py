"""Unit tests for the ECL lexer."""

import pytest

from repro.errors import LexError
from repro.lang import TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        tokens = tokenize("foo_bar42")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "foo_bar42"

    def test_c_keyword(self):
        tokens = tokenize("while")
        assert tokens[0].kind is TokenKind.KEYWORD

    def test_ecl_keywords_recognized(self):
        for word in ["emit", "emit_v", "await", "halt", "present", "abort",
                     "weak_abort", "suspend", "par", "module", "signal",
                     "input", "output", "pure", "handle", "bool"]:
            token = tokenize(word)[0]
            assert token.kind is TokenKind.KEYWORD, word

    def test_identifier_resembling_keyword(self):
        token = tokenize("awaiting")[0]
        assert token.kind is TokenKind.IDENT

    def test_punctuators_greedy(self):
        assert values("a <<= b") == ["a", "<<=", "b"]
        assert values("a << b") == ["a", "<<", "b"]
        assert values("x->y") == ["x", "->", "y"]
        assert values("i++ + 1") == ["i", "++", "+", 1]


class TestNumbers:
    def test_decimal(self):
        assert values("42") == [42]

    def test_hex(self):
        assert values("0xFF") == [255]

    def test_octal(self):
        assert values("0755") == [493]

    def test_zero(self):
        assert values("0") == [0]

    def test_suffixes_ignored(self):
        assert values("42u 42l 0xffUL") == [42, 42, 255]

    def test_bad_octal_digit(self):
        with pytest.raises(LexError):
            tokenize("089")

    def test_float_rejected(self):
        with pytest.raises(LexError):
            tokenize("1.5")

    def test_hex_without_digits(self):
        with pytest.raises(LexError):
            tokenize("0x")


class TestLiterals:
    def test_char_literal(self):
        assert values("'A'") == [65]

    def test_char_escape(self):
        assert values(r"'\n'") == [10]
        assert values(r"'\0'") == [0]
        assert values(r"'\x41'") == [65]

    def test_string_literal(self):
        assert values('"hello"') == ["hello"]

    def test_string_with_escapes(self):
        assert values(r'"a\tb"') == ["a\tb"]

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")


class TestComments:
    def test_line_comment(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_comment_not_nested(self):
        assert values("/* /* */ x") == ["x"]


class TestSpans:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].span.start.line == 1
        assert tokens[1].span.start.line == 2
        assert tokens[1].span.start.column == 3

    def test_filename_in_span(self):
        tokens = tokenize("x", filename="file.ecl")
        assert tokens[0].span.filename == "file.ecl"


class TestPaperGlyphs:
    def test_typographic_tilde_normalized(self):
        # The paper's PDF prints ~ as a typographic tilde.
        tokens = tokenize("˜crc_ok")
        assert tokens[0].is_punct("~")
        assert tokens[1].value == "crc_ok"

    def test_unknown_character_rejected(self):
        with pytest.raises(LexError):
            tokenize("@")


class TestDiagnostics:
    """Every LexError kind, pinned to its exact text and span.

    The errors sit on line 2 or later so the line arithmetic is
    exercised too; the expected texts are the established diagnostics.
    """

    CASES = [
        ("int x;\n  y = 1; /* never closed\n z",
         "t.ecl:2:10: unterminated block comment", "2:10", "3:3"),
        ('int x;\nchar *s = "abc\n";',
         "t.ecl:2:11: unterminated string literal", "2:11", "2:15"),
        ("int x;\n  c = 'ab';",
         "t.ecl:2:7: unterminated character literal", "2:7", "2:9"),
        ("int x;\n   c = '",
         "t.ecl:2:8: unterminated literal", "2:8", "2:9"),
        ('int x;\n s = "ab\\',
         "t.ecl:2:6: unterminated escape sequence", "2:6", "2:10"),
        ("int x;\n c = '\\q';",
         "t.ecl:2:6: unknown escape sequence '\\q'", "2:6", "2:8"),
        ("int x;\n\n c = '\\xg';",
         "t.ecl:3:6: \\x escape with no digits", "3:6", "3:9"),
        ("int x;\n y = 0x;",
         "t.ecl:2:6: hexadecimal literal with no digits", "2:6", "2:8"),
        ("int x;\n\n  y = 0718;",
         "t.ecl:3:7: invalid digit in octal literal", "3:7", "3:10"),
        ("int x;\n y = 12.5;",
         "t.ecl:2:6: floating-point literals are not supported",
         "2:6", "2:8"),
        ("int x;\n y = x @ 2;",
         "t.ecl:2:8: unexpected character '@'", "2:8", "2:9"),
    ]

    @pytest.mark.parametrize("text,message,start,end", CASES)
    def test_message_and_span(self, text, message, start, end):
        with pytest.raises(LexError) as info:
            tokenize(text, filename="t.ecl")
        assert str(info.value) == message
        assert str(info.value.span.start) == start
        assert str(info.value.span.end) == end
