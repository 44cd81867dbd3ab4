"""Use-def analysis over hic threads.

The paper notes (section 2) that the explicit producer/consumer pragmas are
a convenience, and that "one can use standard compiler use-def analysis and
other lifetime analysis methods to extract producers and consumers from a
given specification".  This module provides the per-thread def/use sets
for every statement (in a linearized statement order), the substrate of
the memory access graph.  The pragma inference itself
is :mod:`repro.hic.autopragma`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hic import ast


@dataclass
class StatementInfo:
    """One linearized statement with its definition and use sets.

    Attributes:
        index: Position in the thread's linear statement order.  Statements
            inside loops and branches are numbered in source order, which is
            a valid *partial* order for the analyses in this package (the
            paper likewise works with a partial order of operations, §3).
        stmt: The underlying AST statement.
        defs: Variable names written by the statement.
        uses: Variable names read by the statement.
        loop_depth: Nesting depth (used to weight access counts).
    """

    index: int
    stmt: ast.Stmt
    defs: frozenset[str]
    uses: frozenset[str]
    loop_depth: int = 0


def target_index_uses(target: ast.LValue) -> set[str]:
    """Variables *read* while computing an assignment target address
    (e.g. ``i`` in ``table[i] = v``)."""
    uses: set[str] = set()
    node: ast.Expr = target
    while isinstance(node, (ast.FieldAccess, ast.Index)):
        if isinstance(node, ast.Index):
            uses |= ast.names_read(node.index)
        node = node.base
    return uses


class _Linearizer:
    """Walks a thread body producing :class:`StatementInfo` records."""

    def __init__(self) -> None:
        self.infos: list[StatementInfo] = []
        self._depth = 0

    def run(self, block: ast.Block) -> list[StatementInfo]:
        self._block(block)
        return self.infos

    def _emit(self, stmt: ast.Stmt, defs: set[str], uses: set[str]) -> None:
        self.infos.append(
            StatementInfo(
                index=len(self.infos),
                stmt=stmt,
                defs=frozenset(defs),
                uses=frozenset(uses),
                loop_depth=self._depth,
            )
        )

    def _block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            return
        if isinstance(stmt, ast.Assign):
            uses = ast.names_read(stmt.value) | target_index_uses(stmt.target)
            root = ast.target_root(stmt.target)
            if stmt.op != "=" or isinstance(stmt.target, (ast.Index, ast.FieldAccess)):
                # Compound assignment and partial writes also read the target.
                uses.add(root)
            self._emit(stmt, {root}, uses)
        elif isinstance(stmt, ast.ExprStmt):
            self._emit(stmt, set(), ast.names_read(stmt.expr))
        elif isinstance(stmt, ast.Block):
            self._block(stmt)
        elif isinstance(stmt, ast.If):
            self._emit(stmt, set(), ast.names_read(stmt.cond))
            self._block(stmt.then_body)
            if stmt.else_body is not None:
                self._block(stmt.else_body)
        elif isinstance(stmt, ast.Case):
            uses = ast.names_read(stmt.selector)
            for arm in stmt.arms:
                for value in arm.values:
                    uses |= ast.names_read(value)
            self._emit(stmt, set(), uses)
            for arm in stmt.arms:
                self._block(arm.body)
            if stmt.default is not None:
                self._block(stmt.default)
        elif isinstance(stmt, ast.While):
            self._emit(stmt, set(), ast.names_read(stmt.cond))
            self._depth += 1
            self._block(stmt.body)
            self._depth -= 1
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._stmt(stmt.init)
            uses = ast.names_read(stmt.cond) if stmt.cond is not None else set()
            self._emit(stmt, set(), uses)
            self._depth += 1
            self._block(stmt.body)
            if stmt.step is not None:
                self._stmt(stmt.step)
            self._depth -= 1
        elif isinstance(stmt, ast.Receive):
            self._emit(stmt, {stmt.target.ident}, set())
        elif isinstance(stmt, ast.Transmit):
            self._emit(stmt, set(), ast.names_read(stmt.source))
        elif isinstance(stmt, ast.Return):
            uses = ast.names_read(stmt.value) if stmt.value is not None else set()
            self._emit(stmt, set(), uses)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            self._emit(stmt, set(), set())
        else:  # pragma: no cover
            raise TypeError(f"unsupported statement {type(stmt).__name__}")


def linearize(thread: ast.Thread) -> list[StatementInfo]:
    """Linearize a thread body into statements with def/use sets."""
    return _Linearizer().run(thread.body)
