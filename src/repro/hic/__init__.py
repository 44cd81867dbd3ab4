"""The hic concurrent language front-end.

hic (section 2 of the paper) is a concurrent asynchronous language for
networking applications: concurrency is expressed as hardware threads, and
cooperation happens through a logical global shared memory of ``message``
values.  This package provides the lexer, parser, AST, type system, pragma
resolution, and semantic analysis.

Typical use::

    from repro.hic import analyze

    checked = analyze(source_text)
    checked.dependencies     # resolved producer/consumer dependencies
    checked.scopes["t1"]     # per-thread symbol tables
"""

from . import ast
from .autopragma import InferredDependency, apply_inferred_pragmas
from .errors import (
    HicError,
    HicNameError,
    HicPragmaError,
    HicSemanticError,
    HicSyntaxError,
    HicTypeError,
    SourceLocation,
)
from .lexer import Token, TokenKind, tokenize
from .parser import Parser, parse, parse_with_types
from .pragmas import ConsumerRef, Dependency, resolve_dependencies
from .semantic import (
    CheckedProgram,
    Symbol,
    SymbolKind,
    ThreadScope,
    analyze,
    check_program,
)
from .types import (
    BOOL,
    CHAR,
    INT,
    MESSAGE,
    BitsType,
    BoolType,
    CharType,
    HicType,
    IntType,
    MessageType,
    TypeTable,
    UnionType,
)

__all__ = [
    "ast",
    "analyze",
    "apply_inferred_pragmas",
    "InferredDependency",
    "check_program",
    "parse",
    "parse_with_types",
    "tokenize",
    "resolve_dependencies",
    "Parser",
    "Token",
    "TokenKind",
    "CheckedProgram",
    "Symbol",
    "SymbolKind",
    "ThreadScope",
    "Dependency",
    "ConsumerRef",
    "HicError",
    "HicSyntaxError",
    "HicTypeError",
    "HicNameError",
    "HicPragmaError",
    "HicSemanticError",
    "SourceLocation",
    "HicType",
    "IntType",
    "CharType",
    "BoolType",
    "BitsType",
    "UnionType",
    "MessageType",
    "TypeTable",
    "INT",
    "CHAR",
    "BOOL",
    "MESSAGE",
]
