"""Abstract syntax tree for hic programs.

The AST mirrors the language sketch in section 2 of the paper: a program is a
set of ``thread`` definitions plus top-level type declarations and pragmas.
Each thread body contains variable declarations and structured statements
(assignments, ``if``, ``case`` state machines, ``for``/``while`` loops).

Producer/consumer pragmas attach to the assignment that immediately follows
them, exactly as in the Figure 1 example of the paper, where
``#consumer{mt1,[t2,y1],[t3,z1]}`` annotates the write ``x1 = f(xtmp, x2);``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import SourceLocation
from .types import HicType


class Node:
    """Base class for all AST nodes."""

    location: SourceLocation

    def children(self) -> tuple["Node", ...]:
        """Direct child nodes in source order (used by generic walkers)."""
        return ()


def walk(node: Node) -> list[Node]:
    """Every node of an AST subtree, depth-first pre-order."""
    order: list[Node] = []
    stack = [node]
    while stack:
        node = stack.pop()
        order.append(node)
        children = node.children()
        if children:
            stack.extend(reversed(children))
    return order


def names_read(expr: "Expr") -> set[str]:
    """Every variable name an expression reads, including the arrays it
    indexes and the messages it takes fields of."""
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            names.add(node.ident)
        else:
            stack.extend(node.children())
    return names


def target_root(target: "Expr") -> Optional[str]:
    """The variable an assignment target writes: the name under its
    ``.field`` and ``[index]`` steps, or ``None`` when the target is
    rooted in anything else (a call, a conditional ...), which the
    parser refuses."""
    node = target
    while isinstance(node, (FieldAccess, Index)):
        node = node.base
    return node.ident if isinstance(node, Name) else None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLiteral(Expr):
    value: int
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class CharLiteral(Expr):
    value: int
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class BoolLiteral(Expr):
    value: bool
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Name(Expr):
    """Reference to a declared variable or constant."""

    ident: str
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class FieldAccess(Expr):
    """``base.field`` — access to a field of a ``message`` value."""

    base: Expr
    field_name: str
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.base,)


@dataclass
class Index(Expr):
    """``base[index]`` — element access into an array variable."""

    base: Expr
    index: Expr
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.base, self.index)


@dataclass
class Unary(Expr):
    """Unary operation: one of ``- ! ~``."""

    op: str
    operand: Expr
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.operand,)


@dataclass
class Binary(Expr):
    """Binary operation (arithmetic, comparison, logic, shifts)."""

    op: str
    left: Expr
    right: Expr
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass
class Conditional(Expr):
    """Ternary ``cond ? a : b``."""

    cond: Expr
    then_value: Expr
    else_value: Expr
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.cond, self.then_value, self.else_value)


@dataclass
class Call(Expr):
    """A call to a combinational function, e.g. ``f(xtmp, x2)``.

    hic functions denote combinational logic blocks (the paper's ``f``, ``g``,
    ``h``); they have no side effects on memory.
    """

    callee: str
    args: list[Expr]
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return tuple(self.args)


#: Valid assignment targets.
LValue = Union[Name, FieldAccess, Index]


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DependencyLink:
    """One ``[thread, variable]`` pair inside a producer/consumer pragma."""

    thread: str
    variable: str


@dataclass
class ProducerPragma(Node):
    """``#producer{dep_id, [thread, var], ...}`` — names the *producer(s)* of
    the value consumed by the annotated statement (placed in consumer threads).
    """

    dep_id: str
    links: list[DependencyLink]
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class ConsumerPragma(Node):
    """``#consumer{dep_id, [thread, var], ...}`` — names the *consumer(s)* of
    the value produced by the annotated statement (placed in producer threads).
    """

    dep_id: str
    links: list[DependencyLink]
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class InterfacePragma(Node):
    """``#interface{name, kind}`` — declares a network interface
    (e.g. ``#interface{eth0, gige}``)."""

    name: str
    kind: str
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class ConstantPragma(Node):
    """``#constant{name, value}`` — a design-time constant (e.g. host address)."""

    name: str
    value: int
    location: SourceLocation = field(default_factory=SourceLocation)


DependencyPragma = Union[ProducerPragma, ConsumerPragma]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements."""


@dataclass
class VarDecl(Stmt):
    """``int x1, xtmp, table[8];`` — declaration of one or more variables.

    ``sizes`` parallels ``names``: entry > 0 declares an array of that many
    elements (arrays are what actually occupy BRAM space); 0 is a scalar.
    """

    names: list[str]
    var_type: HicType
    sizes: list[int] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def __post_init__(self) -> None:
        if not self.sizes:
            self.sizes = [0] * len(self.names)
        if len(self.sizes) != len(self.names):
            raise ValueError("VarDecl sizes must parallel names")

    def declarators(self) -> list[tuple[str, int]]:
        """``(name, array_size)`` pairs, array_size 0 for scalars."""
        return list(zip(self.names, self.sizes))


@dataclass
class Assign(Stmt):
    """``target op= value;`` with optional attached dependency pragmas."""

    target: LValue
    value: Expr
    op: str = "="
    pragmas: list[DependencyPragma] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.target, self.value)


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect (a bare call)."""

    expr: Expr
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.expr,)


@dataclass
class Block(Stmt):
    """``{ ... }`` — a statement sequence."""

    statements: list[Stmt] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return tuple(self.statements)


@dataclass
class If(Stmt):
    cond: Expr
    then_body: Block
    else_body: Optional[Block] = None
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        if self.else_body is None:
            return (self.cond, self.then_body)
        return (self.cond, self.then_body, self.else_body)


@dataclass
class CaseArm(Node):
    """One arm of a ``case`` statement: ``of <values>: { ... }``."""

    values: list[Expr]
    body: Block
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (*self.values, self.body)


@dataclass
class Case(Stmt):
    """``case (selector) { of v: {...} ... default: {...} }``.

    The paper calls these "state machines (case statements)"; a case over a
    state variable inside a loop is the idiomatic hic FSM.
    """

    selector: Expr
    arms: list[CaseArm]
    default: Optional[Block] = None
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        if self.default is None:
            return (self.selector, *self.arms)
        return (self.selector, *self.arms, self.default)


@dataclass
class While(Stmt):
    cond: Expr
    body: Block
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.cond, self.body)


@dataclass
class For(Stmt):
    """``for (init; cond; step) { ... }`` with assignment init/step."""

    init: Optional[Assign]
    cond: Optional[Expr]
    step: Optional[Assign]
    body: Block = field(default_factory=Block)
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return tuple(
            child
            for child in (self.init, self.cond, self.step, self.body)
            if child is not None
        )


@dataclass
class Receive(Stmt):
    """``receive(msg, interface);`` — blocking read of the next message."""

    target: Name
    interface: str
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.target,)


@dataclass
class Transmit(Stmt):
    """``transmit(msg, interface);`` — emit a message on an interface."""

    source: Expr
    interface: str
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return (self.source,)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return () if self.value is None else (self.value,)


@dataclass
class Break(Stmt):
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass
class Continue(Stmt):
    location: SourceLocation = field(default_factory=SourceLocation)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Thread(Node):
    """A hic thread: synthesized into a hardware FSM ("thread means a
    hardware thread, that is, each thread is synthesized into logic")."""

    name: str
    params: list[str]
    body: Block
    location: SourceLocation = field(default_factory=SourceLocation)
    #: every node of the body, the body first, depth-first pre-order.
    #: Built once: only the parser restructures a body, and the passes
    #: that read it (pragma inference only appends pragmas to existing
    #: assignments) add or move no node.
    nodes: list[Node] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nodes = walk(self.body)

    def children(self) -> tuple[Node, ...]:
        return (self.body,)

    def declarations(self) -> list[VarDecl]:
        """All variable declarations anywhere in the thread body."""
        return [node for node in self.nodes if isinstance(node, VarDecl)]

    def statements(self) -> list[Stmt]:
        """Top-level statements of the thread body (excluding declarations)."""
        return [
            stmt for stmt in self.body.statements if not isinstance(stmt, VarDecl)
        ]


@dataclass
class Program(Node):
    """A complete hic program."""

    threads: list[Thread] = field(default_factory=list)
    interfaces: list[InterfacePragma] = field(default_factory=list)
    constants: list[ConstantPragma] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def children(self) -> tuple[Node, ...]:
        return tuple(self.threads)

    def thread(self, name: str) -> Thread:
        """Look up a thread by name."""
        for thread in self.threads:
            if thread.name == name:
                return thread
        raise KeyError(f"no thread named {name!r}")

    def thread_names(self) -> list[str]:
        return [thread.name for thread in self.threads]


def dependency_pragmas(program: Program) -> list[tuple[Thread, Assign, DependencyPragma]]:
    """Collect every producer/consumer pragma with its thread and statement."""
    found: list[tuple[Thread, Assign, DependencyPragma]] = []
    for thread in program.threads:
        for node in thread.nodes:
            if isinstance(node, Assign):
                for pragma in node.pragmas:
                    found.append((thread, node, pragma))
    return found
