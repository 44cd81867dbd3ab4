"""Tokenizer for the hic concurrent language.

The paper (section 2) describes hic as a concurrent asynchronous language for
networking applications: threads, a logical global shared memory of
``message`` values, integer/character/user-defined variable types, the usual
structured statements (if, case, for, while), and four pragmas
(``#interface``, ``#constant``, ``#producer``, ``#consumer``).

The lexer is one compiled regular expression matched at a moving offset,
with line numbers taken from newline positions.  Its alternatives are
tried in order: trivia (whitespace and comments) first, operators longest
first so maximal munch works, and last the error cases.  Tokens are ASCII:
outside comments and string/character literals any other character is an
error.  Pragmas are tokenized as
ordinary punctuation (``#`` HASH followed by an identifier and a braced
argument list) so that the parser can treat them uniformly with statements.

:func:`scan` emits one plain ``(kind, text, line, column)`` record per
token, and the parser reads those records; :func:`tokenize` is the public
view of the same records as :class:`Token` values, each with its
:class:`SourceLocation`.  The parser builds a location only for a token
that starts an AST node or a diagnostic, about one token in three.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from .errors import HicSyntaxError, SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories of hic tokens."""

    IDENT = "ident"
    INT = "int-literal"
    CHAR = "char-literal"
    STRING = "string-literal"
    KEYWORD = "keyword"
    PUNCT = "punct"
    HASH = "hash"
    EOF = "eof"


#: Reserved words of the language.  ``message`` is the pre-defined shared
#: memory data type of section 2; ``receive``/``transmit`` are the network
#: interface operations performed by I/O threads.
KEYWORDS = frozenset(
    {
        "thread",
        "int",
        "char",
        "message",
        "type",
        "union",
        "if",
        "else",
        "case",
        "of",
        "default",
        "for",
        "while",
        "return",
        "break",
        "continue",
        "receive",
        "transmit",
        "true",
        "false",
    }
)


#: One token as :func:`scan` emits it: ``(kind, text, line, column)``.
TokenRecord = tuple[TokenKind, str, int, int]


class Token(NamedTuple):
    """A single lexical token with its source location."""

    kind: TokenKind
    text: str
    location: SourceLocation

    def __str__(self) -> str:
        return describe(self.kind, self.text)


def describe(kind: TokenKind, text: str) -> str:
    """A token as diagnostics name it: ``ident('x')``."""
    return f"{kind.value}({text!r})"


def literal_value(kind: TokenKind, text: str) -> int:
    """The value of an INT literal (0x/0b/0o prefixes too) or the ordinal
    of a CHAR literal, from the token's text."""
    if kind is TokenKind.INT:
        return int(text, 0)
    body = text[1:-1]
    if body[0] == "\\":
        return ord(_ESCAPES[body[1]])
    return ord(body)


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'", '"': '"'}

#: Trivia, every token, every error start and the end of the text.  A
#: group named after a :class:`TokenKind` yields a token of that kind,
#: ``word`` an identifier or keyword; trivia matches no group.
_TOKEN = re.compile(
    r"""
      [ \t\r\n]+ | //[^\n]* | /\*.*?\*/
    | (?P<word>    [A-Za-z_][A-Za-z0-9_]* )
    | (?P<INT>     0[xXbBoO][A-Za-z0-9]* | [0-9]+ )
    | (?P<CHAR>    ' (?: \\[ntr0\\'"] | [^\\'] ) ' )
    | (?P<STRING>  " (?: \\. | [^"\\] )* " )
    | (?P<HASH>    \# )
    | (?P<unterminated> /\* | ['"] )
    | (?P<PUNCT>   <<= | >>= | [=!<>+\-*/%&|^]= | && | \|\| | << | >> | ->
                 | [-+*/%<>=!&|^~(){}\[\],;:.?] )
    | (?P<unexpected> . )
    | (?P<EOF>     \Z )
    """,
    re.VERBOSE | re.DOTALL,
)

#: Per group number of ``_TOKEN``, the kind of token the group yields
#: (None for ``word`` and the error groups).
_GROUP_KINDS = [None] + [
    TokenKind.__members__.get(name)
    for name in sorted(_TOKEN.groupindex, key=_TOKEN.groupindex.__getitem__)
]
_WORD = _TOKEN.groupindex["word"]

#: Builds a ``NamedTuple`` without the Python-level ``__new__`` that it
#: generates: with two of them per token, that call took a fifth of
#: ``tokenize``'s time.
_record = tuple.__new__


def _is_integer(text: str) -> bool:
    try:
        int(text, 0)
    except ValueError:
        return False
    return True


def _error_message(source: str, start: int, text: str) -> str:
    """Why no token can start at ``start``, where ``text`` matched."""
    ch = source[start]
    if "0" <= ch <= "9":
        return f"malformed integer literal {text!r}"
    if source.startswith("/*", start):
        return "unterminated block comment"
    if ch == '"':
        return "unterminated string literal"
    if ch == "'":
        body = source[start + 1 : start + 3]
        if body[:1] == "\\" and body[1:] not in _ESCAPES:
            return f"unknown escape sequence '\\{body[1:]}'"
        if body[:1] in ("", "'"):
            return "empty character literal"
        return "unterminated character literal"
    return f"unexpected character {ch!r}"


def scan(source: str) -> list[TokenRecord]:
    """Scan ``source`` into one ``(kind, text, line, column)`` record per
    token, ending with a single EOF record."""
    records = []
    # The loop runs once per token: reading these from locals rather than
    # globals and attributes takes a sixth off its time.
    append = records.append
    keywords, kinds, word = KEYWORDS, _GROUP_KINDS, _WORD
    keyword, ident, integer = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.INT
    end = len(source)
    # Lines are counted at newline positions: ``newline`` is the next one
    # not yet counted (-1 stands for the start of the text, ``end`` for
    # none left) and ``line_start`` the offset after the last one counted.
    line, line_start, newline = 0, 0, -1
    for match in _TOKEN.finditer(source):
        group = match.lastindex
        if group is None:  # trivia
            continue
        start = match.start()
        while newline < start:
            line += 1
            line_start = newline + 1
            newline = source.find("\n", line_start)
            if newline < 0:
                newline = end
        text = match.group()
        if group == word:
            kind = keyword if text in keywords else ident
        else:
            kind = kinds[group]
            if kind is None or kind is integer and not _is_integer(text):
                column = start - line_start + 1
                raise HicSyntaxError(
                    _error_message(source, start, text),
                    _record(SourceLocation, (line, column, "<hic>")),
                )
        append((kind, text, line, start - line_start + 1))
    return records


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into its tokens, ending with a single EOF token."""
    return [
        _record(Token, (kind, text, _record(SourceLocation, (line, column, "<hic>"))))
        for kind, text, line, column in scan(source)
    ]
