"""FSM (FSMD) construction: hic threads to cycle-accurate state machines.

"In the hic front-end compilation, a series of synthesis steps are applied
that transform the hic threads into state machines ...  These state
machines are cycle accurate and we have knowledge of the particular state
where memory accesses happen." (§3)

Each thread becomes a :class:`ThreadFsm` whose states carry *micro-ops*:

* ``MemReadOp`` / ``MemWriteOp`` — one BRAM access per state (the paper's
  single-cycle-access discipline).  Guarded accesses (consumer reads via
  port C, producer writes via port D) are the synchronization points: the
  simulator may stall such a state until the memory controller grants it.
* ``ComputeOp`` — a combinational register update.
* ``ReceiveOp`` / ``TransmitOp`` — network interface transactions.

The FSM loops: after the last statement, control returns to the initial
state, modelling a thread that runs to completion per message and then
processes the next one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from ..hic import ast
from ..hic.semantic import CheckedProgram, SymbolKind
from ..hic.types import MESSAGE_FIELDS
from ..memory.allocation import MemoryMap, Placement


# ---------------------------------------------------------------------------
# Micro-operations
# ---------------------------------------------------------------------------


@dataclass
class MemReadOp:
    """Read one BRAM word into a datapath register.

    ``port`` is ``"A"`` for plain accesses or ``"C"`` for guarded consumer
    reads (which may block until the producer has written, §3.1).
    """

    bram: str
    base_address: int
    dest: str
    offset_expr: Optional[ast.Expr] = None
    port: str = "A"
    dep_id: Optional[str] = None

    @property
    def guarded(self) -> bool:
        return self.port == "C"


@dataclass
class MemWriteOp:
    """Write one BRAM word.

    ``port`` is ``"A"`` for plain accesses or ``"D"`` for guarded producer
    writes (highest priority at the wrapper, §3.1).
    """

    bram: str
    base_address: int
    value_expr: ast.Expr = None  # type: ignore[assignment]
    offset_expr: Optional[ast.Expr] = None
    port: str = "A"
    dep_id: Optional[str] = None

    @property
    def guarded(self) -> bool:
        return self.port == "D"


@dataclass
class ComputeOp:
    """Combinational register update: ``dest := expr``."""

    dest: str
    expr: ast.Expr


@dataclass
class ReceiveOp:
    """Blocking receive of the next message from an interface."""

    target: str
    interface: str


@dataclass
class TransmitOp:
    """Emit a message on an interface."""

    source: str
    interface: str


MicroOp = Union[MemReadOp, MemWriteOp, ComputeOp, ReceiveOp, TransmitOp]


# ---------------------------------------------------------------------------
# States and machines
# ---------------------------------------------------------------------------


@dataclass
class Transition:
    """A guarded transition; ``guard is None`` means unconditional/default.
    Guards are evaluated in list order."""

    guard: Optional[ast.Expr]
    target: str


@dataclass
class State:
    """One FSM state: its micro-ops execute in one cycle (or stall there,
    for guarded/blocking ops) and then a transition fires."""

    name: str
    ops: list[MicroOp] = field(default_factory=list)
    transitions: list[Transition] = field(default_factory=list)

    @property
    def memory_ops(self) -> list[MicroOp]:
        return [op for op in self.ops if isinstance(op, (MemReadOp, MemWriteOp))]


@dataclass
class ThreadFsm:
    """The synthesized state machine of one thread."""

    thread: str
    states: dict[str, State] = field(default_factory=dict)
    initial: str = ""
    #: dep_id -> state names of its guarded accesses in this thread
    sync_states: dict[str, list[str]] = field(default_factory=dict)

    def state(self, name: str) -> State:
        return self.states[name]

    @property
    def state_count(self) -> int:
        return len(self.states)

    def state_bits(self) -> int:
        """Flip-flops in the one-hot-free (binary) state register."""
        return max(1, (len(self.states) - 1).bit_length())

    def reachable_states(self) -> set[str]:
        seen: set[str] = set()
        stack = [self.initial]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            for tr in self.states[name].transitions:
                stack.append(tr.target)
        return seen


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


class FsmBuilder:
    """Builds a :class:`ThreadFsm` from a checked thread and memory map."""

    def __init__(
        self,
        checked: CheckedProgram,
        memory_map: MemoryMap,
        thread: ast.Thread,
    ):
        self._checked = checked
        self._map = memory_map
        self._thread = thread
        self._scope = checked.scopes[thread.name]
        self._fsm = ThreadFsm(thread=thread.name)
        self._counter = itertools.count()
        self._temp_counter = itertools.count()
        self._loop_stack: list[tuple[str, str]] = []  # (continue_to, break_to)

        # Which (dep_id, role) guards apply, resolved from pragmas.
        self._producer_deps = {
            dep.dep_id: dep
            for dep in checked.dependencies
            if dep.producer_thread == thread.name
        }
        self._consumer_deps = {
            dep.dep_id: dep
            for dep in checked.dependencies
            if thread.name in dep.consumer_threads()
        }

    # -- state helpers -------------------------------------------------------------

    def _new_state(self, prefix: str = "s") -> State:
        state = State(name=f"{prefix}{next(self._counter)}")
        self._fsm.states[state.name] = state
        return state

    @staticmethod
    def _link(src: State, dst: State, guard: Optional[ast.Expr] = None) -> None:
        src.transitions.append(Transition(guard, dst.name))

    def _note_sync(self, dep_id: str, state: State) -> None:
        self._fsm.sync_states.setdefault(dep_id, []).append(state.name)

    # -- storage resolution ----------------------------------------------------------

    def _placement_of(self, name: str) -> Optional[Placement]:
        """BRAM placement of a variable as seen from this thread, resolving
        shared imports to the producer's storage.  None = register."""
        symbol = self._scope.symbols.get(name)
        if symbol is None:
            return None
        if symbol.kind is SymbolKind.CONSTANT:
            return None
        if symbol.kind is SymbolKind.SHARED:
            for dep in self._consumer_deps.values():
                if dep.producer_var == name:
                    placement = self._map.placement(dep.producer_thread, name)
                    return placement if placement.is_memory else None
            # Shared but not via a consumer dependency of this thread —
            # resolve through any dependency naming it.
            for dep in self._checked.dependencies:
                if dep.producer_var == name:
                    placement = self._map.placement(dep.producer_thread, name)
                    return placement if placement.is_memory else None
            return None
        placement = self._map.placements.get((self._thread.name, name))
        if placement is not None and placement.is_memory:
            return placement
        return None

    def _new_temp(self) -> str:
        return f"$t{next(self._temp_counter)}"

    # -- expression splitting ---------------------------------------------------------

    def _split_reads(
        self,
        expr: ast.Expr,
        pragmas: list[ast.DependencyPragma] | None = None,
    ) -> tuple[list[MemReadOp], ast.Expr]:
        """Extract BRAM reads from an expression.

        Returns the memory read micro-ops (one per BRAM access) and the
        expression rewritten to reference the loaded registers.  A read is
        guarded (port C) when a #producer pragma on the statement names the
        variable as a consumed dependency.
        """
        guarded_vars: dict[str, str] = {}
        if pragmas:
            for pragma in pragmas:
                if isinstance(pragma, ast.ProducerPragma):
                    link = pragma.links[0]
                    guarded_vars[link.variable] = pragma.dep_id

        reads: list[MemReadOp] = []
        return reads, self._rewrite_reads(expr, guarded_vars, reads, {})

    def _rewrite_reads(
        self,
        node: ast.Expr,
        guarded_vars: dict[str, str],
        reads: list[MemReadOp],
        loaded: dict[str, str],
    ) -> ast.Expr:
        """``node`` reading registers: each BRAM access it makes is
        appended to ``reads`` (a scalar once, noted in ``loaded``).  A
        method rather than a nested function, which would refer to itself
        and so leave every builder it closes over for the cycle collector
        to free."""
        state = (guarded_vars, reads, loaded)
        if isinstance(node, ast.Name):
            placement = self._placement_of(node.ident)
            if placement is None:
                return node
            if node.ident not in loaded:
                dep_id = guarded_vars.get(node.ident)
                reads.append(
                    MemReadOp(
                        bram=placement.bram,
                        base_address=placement.base_address,
                        dest=node.ident,
                        port="C" if dep_id else "A",
                        dep_id=dep_id,
                    )
                )
                loaded[node.ident] = node.ident
            return node  # register mirror carries the same name
        if isinstance(node, ast.Index):
            base = node.base
            assert isinstance(base, ast.Name)
            placement = self._placement_of(base.ident)
            new_index = self._rewrite_reads(node.index, *state)
            if placement is None:
                return ast.Index(base, new_index, node.location)
            temp = self._new_temp()
            dep_id = guarded_vars.get(base.ident)
            reads.append(
                MemReadOp(
                    bram=placement.bram,
                    base_address=placement.base_address,
                    dest=temp,
                    offset_expr=new_index,
                    port="C" if dep_id else "A",
                    dep_id=dep_id,
                )
            )
            return ast.Name(temp, node.location)
        if isinstance(node, ast.FieldAccess):
            base = node.base
            assert isinstance(base, ast.Name)
            placement = self._placement_of(base.ident)
            if placement is None:
                return node
            temp = self._new_temp()
            dep_id = guarded_vars.get(base.ident)
            offset = _message_field_offset(node.field_name)
            reads.append(
                MemReadOp(
                    bram=placement.bram,
                    base_address=placement.base_address + offset,
                    dest=temp,
                    port="C" if dep_id else "A",
                    dep_id=dep_id,
                )
            )
            return ast.Name(temp, node.location)
        if isinstance(node, ast.Unary):
            return ast.Unary(
                node.op, self._rewrite_reads(node.operand, *state), node.location
            )
        if isinstance(node, ast.Binary):
            return ast.Binary(
                node.op,
                self._rewrite_reads(node.left, *state),
                self._rewrite_reads(node.right, *state),
                node.location,
            )
        if isinstance(node, ast.Conditional):
            return ast.Conditional(
                self._rewrite_reads(node.cond, *state),
                self._rewrite_reads(node.then_value, *state),
                self._rewrite_reads(node.else_value, *state),
                node.location,
            )
        if isinstance(node, ast.Call):
            return ast.Call(
                node.callee,
                [self._rewrite_reads(arg, *state) for arg in node.args],
                node.location,
            )
        return node


    def _emit_reads(self, current: State, reads: list[MemReadOp]) -> State:
        """Chain memory-read states after ``current`` (one access per state)."""
        for op in reads:
            state = self._new_state("rd")
            state.ops.append(op)
            if op.dep_id is not None:
                self._note_sync(op.dep_id, state)
            self._link(current, state)
            current = state
        return current

    # -- statements ------------------------------------------------------------------

    def build(self) -> ThreadFsm:
        initial = self._new_state("start")
        self._fsm.initial = initial.name
        exit_state = self._build_block(self._thread.body, initial)
        # Run-to-completion loop: wrap around for the next message/round.
        self._link(exit_state, initial)
        return self._fsm

    def _build_block(self, block: ast.Block, current: State) -> State:
        for stmt in block.statements:
            current = self._build_stmt(stmt, current)
        return current

    def _build_stmt(self, stmt: ast.Stmt, current: State) -> State:
        if isinstance(stmt, ast.VarDecl):
            return current
        if isinstance(stmt, ast.Assign):
            return self._build_assign(stmt, current)
        if isinstance(stmt, ast.ExprStmt):
            reads, expr = self._split_reads(stmt.expr)
            current = self._emit_reads(current, reads)
            state = self._new_state()
            state.ops.append(ComputeOp(self._new_temp(), expr))
            self._link(current, state)
            return state
        if isinstance(stmt, ast.Block):
            return self._build_block(stmt, current)
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, current)
        if isinstance(stmt, ast.Case):
            return self._build_case(stmt, current)
        if isinstance(stmt, ast.While):
            return self._build_while(stmt, current)
        if isinstance(stmt, ast.For):
            return self._build_for(stmt, current)
        if isinstance(stmt, ast.Receive):
            state = self._new_state("rx")
            state.ops.append(ReceiveOp(stmt.target.ident, stmt.interface))
            self._link(current, state)
            return state
        if isinstance(stmt, ast.Transmit):
            assert isinstance(stmt.source, ast.Name)
            state = self._new_state("tx")
            state.ops.append(TransmitOp(stmt.source.ident, stmt.interface))
            self._link(current, state)
            return state
        if isinstance(stmt, ast.Return):
            # Return ends the round: jump to initial; following code is dead.
            self._link(current, self._fsm.states[self._fsm.initial])
            return self._new_state("dead")
        if isinstance(stmt, ast.Break):
            __, break_to = self._loop_stack[-1]
            self._link(current, self._fsm.states[break_to])
            return self._new_state("dead")
        if isinstance(stmt, ast.Continue):
            continue_to, __ = self._loop_stack[-1]
            self._link(current, self._fsm.states[continue_to])
            return self._new_state("dead")
        raise TypeError(f"unsupported statement {type(stmt).__name__}")

    def _build_assign(self, stmt: ast.Assign, current: State) -> State:
        value = stmt.value
        if stmt.op != "=":
            # Desugar compound assignment: target = target <op> value.
            value = ast.Binary(stmt.op[:-1], _target_as_expr(stmt.target), value,
                               stmt.location)
        reads, value = self._split_reads(value, stmt.pragmas)
        current = self._emit_reads(current, reads)

        root = ast.target_root(stmt.target)
        placement = self._placement_of(root)

        # Guarded producer write?  (#consumer pragma on this statement)
        dep_id = None
        for pragma in stmt.pragmas:
            if isinstance(pragma, ast.ConsumerPragma):
                dep_id = pragma.dep_id

        if placement is None:
            state = self._new_state()
            state.ops.append(ComputeOp(root, value))
            self._link(current, state)
            return state

        # BRAM-resident target: compute the word address.
        offset_expr: Optional[ast.Expr] = None
        base = placement.base_address
        if isinstance(stmt.target, ast.Index):
            index_reads, offset_expr = self._split_reads(stmt.target.index)
            current = self._emit_reads(current, index_reads)
        elif isinstance(stmt.target, ast.FieldAccess):
            base += _message_field_offset(stmt.target.field_name)

        state = self._new_state("wr")
        state.ops.append(
            MemWriteOp(
                bram=placement.bram,
                base_address=base,
                value_expr=value,
                offset_expr=offset_expr,
                port="D" if dep_id else "A",
                dep_id=dep_id,
            )
        )
        if dep_id is not None:
            self._note_sync(dep_id, state)
        self._link(current, state)
        return state

    def _build_if(self, stmt: ast.If, current: State) -> State:
        reads, cond = self._split_reads(stmt.cond)
        current = self._emit_reads(current, reads)
        branch = self._new_state("br")
        self._link(current, branch)
        join = self._new_state("join")

        then_entry = self._new_state()
        self._link(branch, then_entry, guard=cond)
        then_exit = self._build_block(stmt.then_body, then_entry)
        self._link(then_exit, join)

        if stmt.else_body is not None:
            else_entry = self._new_state()
            self._link(branch, else_entry)
            else_exit = self._build_block(stmt.else_body, else_entry)
            self._link(else_exit, join)
        else:
            self._link(branch, join)
        return join

    def _build_case(self, stmt: ast.Case, current: State) -> State:
        reads, selector = self._split_reads(stmt.selector)
        current = self._emit_reads(current, reads)
        branch = self._new_state("case")
        self._link(current, branch)
        join = self._new_state("join")

        for arm in stmt.arms:
            guard: Optional[ast.Expr] = None
            for value in arm.values:
                eq = ast.Binary("==", selector, value, stmt.location)
                guard = eq if guard is None else ast.Binary("||", guard, eq,
                                                            stmt.location)
            entry = self._new_state()
            self._link(branch, entry, guard=guard)
            exit_state = self._build_block(arm.body, entry)
            self._link(exit_state, join)

        if stmt.default is not None:
            entry = self._new_state()
            self._link(branch, entry)
            exit_state = self._build_block(stmt.default, entry)
            self._link(exit_state, join)
        else:
            self._link(branch, join)
        return join

    def _build_while(self, stmt: ast.While, current: State) -> State:
        head = self._new_state("loop")
        self._link(current, head)
        exit_state = self._new_state("exit")

        reads, cond = self._split_reads(stmt.cond)
        test_entry = self._emit_reads(head, reads)
        test = self._new_state("test")
        self._link(test_entry, test)

        body_entry = self._new_state()
        self._link(test, body_entry, guard=cond)
        self._link(test, exit_state)

        self._loop_stack.append((head.name, exit_state.name))
        body_exit = self._build_block(stmt.body, body_entry)
        self._loop_stack.pop()
        self._link(body_exit, head)
        return exit_state

    def _build_for(self, stmt: ast.For, current: State) -> State:
        if stmt.init is not None:
            current = self._build_assign(stmt.init, current)
        head = self._new_state("loop")
        self._link(current, head)
        exit_state = self._new_state("exit")

        if stmt.cond is not None:
            reads, cond = self._split_reads(stmt.cond)
            test_entry = self._emit_reads(head, reads)
            test = self._new_state("test")
            self._link(test_entry, test)
            body_entry = self._new_state()
            self._link(test, body_entry, guard=cond)
            self._link(test, exit_state)
        else:
            body_entry = self._new_state()
            self._link(head, body_entry)

        step_state = self._new_state("step")
        self._loop_stack.append((step_state.name, exit_state.name))
        body_exit = self._build_block(stmt.body, body_entry)
        self._loop_stack.pop()
        self._link(body_exit, step_state)
        if stmt.step is not None:
            after_step = self._build_assign(stmt.step, step_state)
        else:
            after_step = step_state
        self._link(after_step, head)
        return exit_state


def _message_field_offset(field_name: str) -> int:
    """Word offset of a message field: one BRAM word per field."""
    names = list(MESSAGE_FIELDS)
    return names.index(field_name)


def _target_as_expr(target: ast.LValue) -> ast.Expr:
    """The target re-read as an expression (for compound assignment)."""
    return target


def synthesize_thread(
    checked: CheckedProgram, memory_map: MemoryMap, thread_name: str
) -> ThreadFsm:
    """Synthesize one thread into its FSM."""
    thread = checked.program.thread(thread_name)
    builder = FsmBuilder(checked, memory_map, thread)
    return builder.build()


def synthesize_program(
    checked: CheckedProgram, memory_map: MemoryMap
) -> dict[str, ThreadFsm]:
    """Synthesize every thread of a program."""
    return {
        thread.name: synthesize_thread(checked, memory_map, thread.name)
        for thread in checked.program.threads
    }
