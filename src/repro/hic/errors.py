"""Error types and source locations for the hic front-end.

Every diagnostic raised by the lexer, parser, or semantic analyzer carries a
:class:`SourceLocation` so that callers (and tests) can pinpoint the offending
construct in the original hic text.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a hic source text.

    Attributes:
        line: 1-based line number.
        column: 1-based column number.
        filename: ``"<hic>"``: the front end reads text, not files; a
            command that read a file names it in the diagnostic it prints
            (:func:`repro.cli.hic_diagnostic`).
    """

    line: int = 1
    column: int = 1
    filename: str = "<hic>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class HicError(Exception):
    """Base class for all diagnostics produced by the hic front-end."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location or SourceLocation()
        super().__init__(f"{self.location}: {message}")


class HicSyntaxError(HicError):
    """Raised by the lexer or parser on malformed input."""


class HicTypeError(HicError):
    """Raised by the semantic analyzer on type violations."""


class HicNameError(HicError):
    """Raised on references to undeclared identifiers or duplicate declarations."""


class HicPragmaError(HicError):
    """Raised on malformed or inconsistent pragma usage."""


class HicSemanticError(HicError):
    """Raised on non-type semantic violations (e.g. message-in-flight rules)."""
