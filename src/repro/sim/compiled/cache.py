"""In-process codegen cache, keyed by the generated source itself.

``compile_program`` is the subsystem's front door: it generates the
design's tick module, serves the cached :class:`CompiledProgram` when
that exact source was compiled before, and otherwise ``compile()``s it
and executes it once, keeping its ``bind`` entry point.
Generation is the cheap half of codegen and ``compile()`` the dear one,
so repeated ``build_simulation`` calls on an identical design — the
shape of every campaign sweep and DSE run — compile once per process;
``generation_count()`` counts the programs compiled (the cache misses)
so tests can assert the second build was a hit.

The key is the sha256 of the generated source, so two designs share a
program exactly when they generate the same module, and a stale hit is
impossible by construction.  The generated ``bind`` still re-asserts
that the runtime objects match its static assumptions, and refuses to
bind on drift.

A design the generator cannot handle raises
:class:`~.codegen.UnsupportedDesign` from every call; the refusal is not
cached, since generating is cheap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from .codegen import generate_source


@dataclass(frozen=True)
class CompiledProgram:
    """One cached codegen result (shared by every kernel instance built
    from a design that generates the same source).

    The module is executed once, here: ``bind(kernel)`` returns the
    kernel's ``run_span(kernel, start, end, deadline,
    max_wall_seconds)``.  Executing it per kernel would give every build
    a fresh module namespace that its own functions point back at, a
    reference cycle only the cycle collector frees.
    """

    digest: str
    source: str
    bind: Callable


_CACHE: dict[str, CompiledProgram] = {}
_GENERATION_COUNT = 0


def compile_program(design) -> CompiledProgram:
    """The cached codegen pipeline: generate, hash, compile on a miss.

    Raises :class:`~.codegen.UnsupportedDesign` when the design has no
    compiled equivalent.
    """
    global _GENERATION_COUNT
    source = generate_source(design)
    digest = hashlib.sha256(source.encode()).hexdigest()
    program = _CACHE.get(digest)
    if program is None:
        _GENERATION_COUNT += 1
        code = compile(source, f"<compiled-sim {digest[:16]}>", "exec")
        namespace: dict = {}
        exec(code, namespace)
        program = CompiledProgram(digest, source, namespace["bind"])
        _CACHE[digest] = program
    return program


def generation_count() -> int:
    """How many programs have been compiled (cache misses) in this
    process — the codegen-cache test observable."""
    return _GENERATION_COUNT


def cache_size() -> int:
    return len(_CACHE)


def clear_cache() -> None:
    """Drop every cached program (tests and benchmarks use this to
    measure cold-start codegen honestly)."""
    _CACHE.clear()
