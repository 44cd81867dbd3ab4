"""Compiled per-design simulation backend.

Specializes each compiled design into one generated straight-line
Python tick function (compiled once per distinct generated source and
cached in-process under its sha256), proven byte-for-byte
cycle-equivalent to the reference kernel by ``tests/differential/``.  See
``docs/simulation_kernels.md`` for when to pick it.
"""

from .cache import (
    CompiledProgram,
    cache_size,
    clear_cache,
    compile_program,
    generation_count,
)
from .codegen import UnsupportedDesign, generate_source
from .exprgen import ExprCompiler, UnsupportedExpression
from .kernel import CompiledKernel

__all__ = [
    "CompiledKernel",
    "CompiledProgram",
    "ExprCompiler",
    "UnsupportedDesign",
    "UnsupportedExpression",
    "cache_size",
    "clear_cache",
    "compile_program",
    "generate_source",
    "generation_count",
]
