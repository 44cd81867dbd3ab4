"""Unit tests for the hic lexer."""

import pytest

from repro.hic import HicSyntaxError, TokenKind, tokenize
from repro.hic.lexer import literal_value


def value(token):
    return literal_value(token.kind, token.text)


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        tokens = tokenize("x1")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "x1"

    def test_keyword_recognized(self):
        tokens = tokenize("thread")
        assert tokens[0].kind is TokenKind.KEYWORD

    def test_identifier_with_underscore(self):
        assert texts("_my_var2") == ["_my_var2"]

    def test_decimal_literal(self):
        token = tokenize("1234")[0]
        assert token.kind is TokenKind.INT
        assert value(token) == 1234

    def test_hex_literal(self):
        assert value(tokenize("0xFF")[0]) == 255

    def test_binary_literal(self):
        assert value(tokenize("0b1010")[0]) == 10

    def test_octal_literal(self):
        assert value(tokenize("0o17")[0]) == 15

    def test_char_literal(self):
        token = tokenize("'a'")[0]
        assert token.kind is TokenKind.CHAR
        assert value(token) == ord("a")

    def test_char_escape(self):
        assert value(tokenize(r"'\n'")[0]) == ord("\n")

    def test_hash_token(self):
        assert kinds("#")[0] is TokenKind.HASH


class TestOperators:
    @pytest.mark.parametrize(
        "op",
        ["==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "<<=", ">>="],
    )
    def test_multichar_operator(self, op):
        tokens = tokenize(op)
        assert tokens[0].text == op
        assert tokens[0].kind is TokenKind.PUNCT

    def test_maximal_munch(self):
        # "<<=" must lex as one token, not "<<" then "=".
        assert texts("a <<= 1") == ["a", "<<=", "1"]

    def test_adjacent_singles(self):
        assert texts("a+-b") == ["a", "+", "-", "b"]


class TestTrivia:
    def test_line_comment_skipped(self):
        assert texts("a // comment here\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(HicSyntaxError):
            tokenize("/* never closed")

    def test_locations_track_lines(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(HicSyntaxError):
            tokenize("a @ b")

    def test_unterminated_char(self):
        with pytest.raises(HicSyntaxError):
            tokenize("'a")

    def test_empty_char(self):
        with pytest.raises(HicSyntaxError):
            tokenize("''")

    def test_bad_escape(self):
        with pytest.raises(HicSyntaxError):
            tokenize(r"'\q'")

    def test_malformed_hex(self):
        with pytest.raises(HicSyntaxError):
            tokenize("0xZZ")


class TestFullPrograms:
    def test_figure1_tokenizes(self, figure1_source):
        tokens = tokenize(figure1_source)
        assert tokens[-1].kind is TokenKind.EOF
        thread_count = sum(1 for t in tokens if t.text == "thread")
        assert thread_count == 3

    def test_pragma_sequence(self):
        toks = texts("#consumer{mt1,[t2,y1]}")
        assert toks == ["#", "consumer", "{", "mt1", ",", "[", "t2", ",", "y1", "]", "}"]


class TestAsciiOnly:
    """Tokens are ASCII: Verilog-2001 identifiers are, and ``isalpha``/
    ``isdigit`` would otherwise admit any Unicode letter or digit."""

    @pytest.mark.parametrize(
        "source, column",
        [
            ("int café;", 8),
            ("x = ٣ + 1;", 5),  # ARABIC-INDIC DIGIT THREE
            ("x\u00a0= 1;", 2),  # NO-BREAK SPACE
            ("été", 1),
            ("a = 1²;", 6),  # SUPERSCRIPT TWO
        ],
    )
    def test_non_ascii_outside_literals_is_unexpected(self, source, column):
        with pytest.raises(HicSyntaxError) as err:
            tokenize(source)
        assert err.value.message == f"unexpected character {source[column - 1]!r}"
        assert (err.value.location.line, err.value.location.column) == (1, column)

    def test_non_ascii_program_is_rejected(self):
        from repro.hic import analyze

        with pytest.raises(HicSyntaxError) as err:
            analyze("thread t () {\n  int café;\n  café = café + 1;\n}")
        assert (err.value.location.line, err.value.location.column) == (2, 10)

    def test_non_ascii_inside_comments_and_literals_is_kept(self):
        tokens = tokenize("// café\n/* ٣ */ 'é' \"naïve\"")
        assert [(t.kind, t.text) for t in tokens] == [
            (TokenKind.CHAR, "'é'"),
            (TokenKind.STRING, '"naïve"'),
            (TokenKind.EOF, ""),
        ]
        assert value(tokens[0]) == 0xE9
        assert [t.location.column for t in tokens] == [9, 13, 20]
