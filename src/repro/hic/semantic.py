"""Semantic analysis for hic programs.

Performs name resolution, type checking, and the hic-specific structural
rules from section 2 of the paper:

* network I/O (``receive``/``transmit``) must target ``message`` variables
  and reference declared ``#interface`` pragmas;
* a computation thread has *at most one message in flight*, so at most one
  ``message`` variable may be live per thread;
* ``break``/``continue`` appear only inside loops;
* assignment and expression operands must be type compatible.

The result is a :class:`CheckedProgram` carrying the per-thread symbol
tables, the constant/interface environments, and the resolved inter-thread
dependencies — everything the synthesis and analysis passes consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import ast
from .errors import HicNameError, HicSemanticError, HicTypeError
from .parser import parse_with_types
from .pragmas import Dependency, resolve_dependencies
from .types import (
    BOOL,
    INT,
    BitsType,
    HicType,
    MessageType,
    TypeTable,
    common_type,
    is_numeric,
)


class SymbolKind(enum.Enum):
    VARIABLE = "variable"
    PARAMETER = "parameter"
    CONSTANT = "constant"
    #: A variable owned by another thread, visible here through the logical
    #: global shared memory because a #producer pragma names it (Figure 1's
    #: ``x1`` as read inside threads t2/t3).
    SHARED = "shared"


@dataclass(frozen=True)
class Symbol:
    """A named entity visible inside a thread."""

    name: str
    hic_type: HicType
    kind: SymbolKind = SymbolKind.VARIABLE
    array_size: int = 0

    @property
    def is_array(self) -> bool:
        return self.array_size > 0

    @property
    def storage_bits(self) -> int:
        """Total storage footprint of the symbol in bits."""
        elements = self.array_size if self.is_array else 1
        return elements * self.hic_type.bit_width


@dataclass
class ThreadScope:
    """Symbol table of one thread."""

    thread_name: str
    symbols: dict[str, Symbol] = field(default_factory=dict)

    def declare(self, symbol: Symbol, location) -> None:
        if symbol.name in self.symbols:
            raise HicNameError(
                f"{symbol.name!r} already declared in thread "
                f"{self.thread_name!r}",
                location,
            )
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str, location) -> Symbol:
        if name not in self.symbols:
            raise HicNameError(
                f"{name!r} is not declared in thread {self.thread_name!r}",
                location,
            )
        return self.symbols[name]

    def __contains__(self, name: str) -> bool:
        return name in self.symbols

    def message_variables(self) -> list[Symbol]:
        return [
            sym
            for sym in self.symbols.values()
            if isinstance(sym.hic_type, MessageType)
        ]


@dataclass
class CheckedProgram:
    """The output of semantic analysis: a validated program plus all the
    side tables downstream passes need."""

    program: ast.Program
    types: TypeTable
    scopes: dict[str, ThreadScope]
    constants: dict[str, int]
    interfaces: dict[str, str]
    dependencies: list[Dependency]

    def scope(self, thread_name: str) -> ThreadScope:
        if thread_name not in self.scopes:
            raise KeyError(f"no thread named {thread_name!r}")
        return self.scopes[thread_name]

    def symbol(self, thread_name: str, var_name: str) -> Symbol:
        return self.scope(thread_name).symbols[var_name]


class _ThreadChecker:
    """Type checker/scoper for a single thread body."""

    def __init__(
        self,
        thread: ast.Thread,
        types: TypeTable,
        scope: ThreadScope,
        interfaces: dict[str, str],
    ):
        self.thread = thread
        self.types = types
        self.interfaces = interfaces
        self.scope = scope
        self._loop_depth = 0

    # -- statements ---------------------------------------------------------------

    def check(self) -> ThreadScope:
        self._check_block(self.thread.body)
        messages = [
            sym
            for sym in self.scope.message_variables()
            if sym.kind is not SymbolKind.SHARED
        ]
        if len(messages) > 1:
            names = ", ".join(sym.name for sym in messages)
            raise HicSemanticError(
                f"thread {self.thread.name!r} declares {len(messages)} message "
                f"variables ({names}); hic threads have at most one message "
                "in flight",
                self.thread.location,
            )
        return self.scope

    def _check_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._check_stmt(stmt)

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            pass  # declarations were collected in the scope-building pass
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._type_of(stmt.expr)
        elif isinstance(stmt, ast.Block):
            self._check_block(stmt)
        elif isinstance(stmt, ast.If):
            self._require_numeric(stmt.cond, "if condition")
            self._check_block(stmt.then_body)
            if stmt.else_body is not None:
                self._check_block(stmt.else_body)
        elif isinstance(stmt, ast.Case):
            self._require_numeric(stmt.selector, "case selector")
            for arm in stmt.arms:
                for value in arm.values:
                    self._require_numeric(value, "case arm value")
                self._check_block(arm.body)
            if stmt.default is not None:
                self._check_block(stmt.default)
        elif isinstance(stmt, ast.While):
            self._require_numeric(stmt.cond, "while condition")
            self._loop_depth += 1
            self._check_block(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._check_assign(stmt.init)
            if stmt.cond is not None:
                self._require_numeric(stmt.cond, "for condition")
            if stmt.step is not None:
                self._check_assign(stmt.step)
            self._loop_depth += 1
            self._check_block(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Receive):
            self._check_io(stmt.target, stmt.interface, stmt, "receive")
        elif isinstance(stmt, ast.Transmit):
            if not isinstance(stmt.source, ast.Name):
                raise HicSemanticError(
                    "transmit source must be a message variable", stmt.location
                )
            self._check_io(stmt.source, stmt.interface, stmt, "transmit")
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._type_of(stmt.value)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loop_depth == 0:
                kind = "break" if isinstance(stmt, ast.Break) else "continue"
                raise HicSemanticError(
                    f"{kind} outside of a loop", stmt.location
                )
        else:  # pragma: no cover - parser produces no other statement kinds
            raise HicSemanticError(
                f"unsupported statement {type(stmt).__name__}", stmt.location
            )

    def _check_io(self, var: ast.Name, interface: str, stmt, verb: str) -> None:
        symbol = self.scope.lookup(var.ident, var.location)
        if not isinstance(symbol.hic_type, MessageType):
            raise HicTypeError(
                f"{verb} requires a message variable, {var.ident!r} is "
                f"{symbol.hic_type}",
                stmt.location,
            )
        if interface not in self.interfaces:
            raise HicNameError(
                f"{verb} references undeclared interface {interface!r} "
                "(declare it with #interface{name, kind})",
                stmt.location,
            )

    def _check_assign(self, stmt: ast.Assign) -> None:
        target_type = self._lvalue_type(stmt.target)
        value_type = self._type_of(stmt.value)
        if isinstance(target_type, MessageType):
            if not isinstance(value_type, MessageType):
                raise HicTypeError(
                    "cannot assign a non-message value to a message variable",
                    stmt.location,
                )
            if stmt.op != "=":
                raise HicTypeError(
                    f"operator {stmt.op!r} is not defined on messages",
                    stmt.location,
                )
            return
        if isinstance(value_type, MessageType):
            raise HicTypeError(
                "cannot assign a whole message to a scalar variable "
                "(use field access)",
                stmt.location,
            )
        if stmt.op != "=" and not is_numeric(target_type):
            raise HicTypeError(
                f"operator {stmt.op!r} requires a numeric target", stmt.location
            )

    def _lvalue_type(self, target: ast.LValue) -> HicType:
        if isinstance(target, ast.Name):
            symbol = self.scope.lookup(target.ident, target.location)
            if symbol.kind is SymbolKind.CONSTANT:
                raise HicSemanticError(
                    f"cannot assign to constant {target.ident!r}", target.location
                )
            if symbol.kind is SymbolKind.SHARED:
                raise HicSemanticError(
                    f"{target.ident!r} is a shared variable produced by another "
                    "thread; only its producer may write it",
                    target.location,
                )
            if symbol.is_array:
                raise HicTypeError(
                    f"cannot assign to whole array {target.ident!r}",
                    target.location,
                )
            return symbol.hic_type
        if isinstance(target, ast.FieldAccess):
            return self._field_type(target)
        if isinstance(target, ast.Index):
            return self._index_type(target)
        raise HicTypeError("invalid assignment target", target.location)

    # -- expressions --------------------------------------------------------------

    def _require_numeric(self, expr: ast.Expr, what: str) -> HicType:
        expr_type = self._type_of(expr)
        if not is_numeric(expr_type):
            raise HicTypeError(f"{what} must be numeric, got {expr_type}", expr.location)
        return expr_type

    def _type_of(self, expr: ast.Expr) -> HicType:
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.CharLiteral):
            return self.types.lookup("char")
        if isinstance(expr, ast.BoolLiteral):
            return BOOL
        if isinstance(expr, ast.Name):
            symbol = self.scope.lookup(expr.ident, expr.location)
            if symbol.is_array:
                raise HicTypeError(
                    f"array {expr.ident!r} used without an index", expr.location
                )
            return symbol.hic_type
        if isinstance(expr, ast.FieldAccess):
            return self._field_type(expr)
        if isinstance(expr, ast.Index):
            return self._index_type(expr)
        if isinstance(expr, ast.Unary):
            operand = self._require_numeric(expr.operand, f"operand of {expr.op!r}")
            if expr.op == "!":
                return BOOL
            return operand
        if isinstance(expr, ast.Binary):
            left = self._require_numeric(expr.left, f"operand of {expr.op!r}")
            right = self._require_numeric(expr.right, f"operand of {expr.op!r}")
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return BOOL
            try:
                return common_type(left, right)
            except TypeError as exc:
                raise HicTypeError(str(exc), expr.location)
        if isinstance(expr, ast.Conditional):
            self._require_numeric(expr.cond, "conditional test")
            then_type = self._type_of(expr.then_value)
            else_type = self._type_of(expr.else_value)
            if isinstance(then_type, MessageType) or isinstance(else_type, MessageType):
                raise HicTypeError(
                    "conditional expressions cannot produce messages",
                    expr.location,
                )
            return common_type(then_type, else_type)
        if isinstance(expr, ast.Call):
            for arg in expr.args:
                arg_type = self._type_of(arg)
                if isinstance(arg_type, MessageType):
                    raise HicTypeError(
                        f"function {expr.callee!r} cannot take a whole message "
                        "argument (pass fields)",
                        expr.location,
                    )
            return INT
        raise HicTypeError(
            f"unsupported expression {type(expr).__name__}", expr.location
        )

    def _field_type(self, expr: ast.FieldAccess) -> HicType:
        base_type = self._type_of_base(expr.base)
        if not isinstance(base_type, MessageType):
            raise HicTypeError(
                f"field access requires a message value, got {base_type}",
                expr.location,
            )
        try:
            __, width = MessageType.field_slice(expr.field_name)
        except KeyError as exc:
            raise HicTypeError(str(exc), expr.location)
        return BitsType(f"message.{expr.field_name}", width)

    def _index_type(self, expr: ast.Index) -> HicType:
        if not isinstance(expr.base, ast.Name):
            raise HicTypeError(
                "only named arrays can be indexed", expr.location
            )
        symbol = self.scope.lookup(expr.base.ident, expr.base.location)
        if not symbol.is_array:
            raise HicTypeError(
                f"{expr.base.ident!r} is not an array", expr.location
            )
        self._require_numeric(expr.index, "array index")
        return symbol.hic_type

    def _type_of_base(self, expr: ast.Expr) -> HicType:
        """Type of a field-access base without the no-bare-array restriction."""
        if isinstance(expr, ast.Name):
            symbol = self.scope.lookup(expr.ident, expr.location)
            return symbol.hic_type
        return self._type_of(expr)


def check_program(program: ast.Program, types: TypeTable) -> CheckedProgram:
    """Run semantic analysis over a parsed program."""
    seen_threads: set[str] = set()
    for thread in program.threads:
        if thread.name in seen_threads:
            raise HicNameError(
                f"duplicate thread name {thread.name!r}", thread.location
            )
        seen_threads.add(thread.name)

    constants: dict[str, int] = {}
    for pragma in program.constants:
        if pragma.name in constants:
            raise HicNameError(
                f"duplicate constant {pragma.name!r}", pragma.location
            )
        constants[pragma.name] = pragma.value

    interfaces: dict[str, str] = {}
    for pragma in program.interfaces:
        if pragma.name in interfaces:
            raise HicNameError(
                f"duplicate interface {pragma.name!r}", pragma.location
            )
        interfaces[pragma.name] = pragma.kind

    # Pass 1: build every thread's scope from its declarations, parameters,
    # and the program-level constants.
    scopes: dict[str, ThreadScope] = {}
    for thread in program.threads:
        scope = ThreadScope(thread.name)
        for param in thread.params:
            scope.declare(Symbol(param, INT, SymbolKind.PARAMETER), thread.location)
        for decl in thread.declarations():
            for name, size in decl.declarators():
                scope.declare(
                    Symbol(name, decl.var_type, SymbolKind.VARIABLE, size),
                    decl.location,
                )
        for name in constants:
            if name not in scope:
                scope.symbols[name] = Symbol(name, INT, SymbolKind.CONSTANT)
        scopes[thread.name] = scope

    # Pass 2: import shared variables.  A #producer{id, [t, v]} pragma inside
    # a consumer thread makes the producer's variable ``v`` readable here via
    # the logical global shared memory (Figure 1 reads ``x1`` inside t2/t3).
    for thread in program.threads:
        scope = scopes[thread.name]
        for node in thread.nodes:
            if not isinstance(node, ast.Assign):
                continue
            for pragma in node.pragmas:
                if not isinstance(pragma, ast.ProducerPragma):
                    continue
                for link in pragma.links:
                    if link.thread not in scopes:
                        raise HicNameError(
                            f"#producer pragma references unknown thread "
                            f"{link.thread!r}",
                            pragma.location,
                        )
                    producer_scope = scopes[link.thread]
                    if link.variable not in producer_scope:
                        raise HicNameError(
                            f"#producer pragma references {link.variable!r}, "
                            f"which thread {link.thread!r} does not declare",
                            pragma.location,
                        )
                    produced = producer_scope.symbols[link.variable]
                    if link.variable in scope:
                        existing = scope.symbols[link.variable]
                        if existing.kind is not SymbolKind.SHARED:
                            raise HicNameError(
                                f"{link.variable!r} is declared locally in "
                                f"thread {thread.name!r} but also imported as "
                                f"a shared variable from {link.thread!r}",
                                pragma.location,
                            )
                    else:
                        scope.symbols[link.variable] = Symbol(
                            produced.name,
                            produced.hic_type,
                            SymbolKind.SHARED,
                            produced.array_size,
                        )

    # Pass 3: type-check thread bodies against the finished scopes.
    for thread in program.threads:
        checker = _ThreadChecker(thread, types, scopes[thread.name], interfaces)
        checker.check()

    dependencies = resolve_dependencies(program)
    for dep in dependencies:
        producer_scope = scopes[dep.producer_thread]
        if dep.producer_var not in producer_scope:
            raise HicNameError(
                f"dependency {dep.dep_id!r} producer variable "
                f"{dep.producer_var!r} is not declared in thread "
                f"{dep.producer_thread!r}"
            )
        for ref in dep.consumers:
            if ref.variable not in scopes[ref.thread]:
                raise HicNameError(
                    f"dependency {dep.dep_id!r} consumer variable "
                    f"{ref.variable!r} is not declared in thread {ref.thread!r}"
                )

    return CheckedProgram(
        program=program,
        types=types,
        scopes=scopes,
        constants=constants,
        interfaces=interfaces,
        dependencies=dependencies,
    )


def analyze(source: str, infer_pragmas: bool = False) -> CheckedProgram:
    """Parse and semantically check hic source in one call.

    With ``infer_pragmas=True``, producer/consumer pragmas are derived
    from cross-thread use-def analysis before checking (the paper's §2
    alternative to explicit annotation); explicit pragmas take precedence.
    """
    program, types = parse_with_types(source)
    if infer_pragmas:
        from .autopragma import apply_inferred_pragmas

        apply_inferred_pragmas(program)
    return check_program(program, types)
