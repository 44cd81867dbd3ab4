"""FSM thread executor: interprets synthesized thread FSMs cycle by cycle.

Each :class:`ThreadExecutor` owns one thread's datapath state (its register
environment) and walks its FSM under the two-phase protocol of
:mod:`repro.sim.kernel`:

* **phase 1** — the executor performs the current state's register-only
  work, or submits its memory request / checks its interface;
* **phase 2** — after the memory controllers arbitrate, granted executors
  absorb read data and take a transition; blocked executors stay put (the
  hardware analogue: the FSM state register holds).

Nothing in a state changes after synthesis, so an executor decodes each
state once, the first time it runs it, into a plan (:class:`StatePlan`):
the state's micro-ops tagged by kind, every expression (a computed value,
an address offset, a write's data, a transition guard) as a closure over
the register file built by :func:`decode_expr`, the memory op whose grant
phase 2 checks, the transitions as ``(guard, target, closes_round)`` and
the state's :class:`HoldClass`.  A cycle runs the plan; no expression
tree is walked after a state's first visit.  Plans hold the register
file, the function table and the controllers, never the executor, so a
finished run is freed by reference counting.

Expression evaluation is exact two's-complement 32-bit arithmetic, with
hic's combinational functions (``f``, ``g``, ``h``, the forwarding lookup,
…) resolved through a caller-supplied function table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.controller import MemRequest, MemResult, MemoryController
from ..hic import ast
from ..hic.semantic import CheckedProgram
from ..hic.types import MESSAGE_FIELDS
from ..memory.allocation import MemoryMap, Residency
from ..synth.fsm import (
    ComputeOp,
    MemReadOp,
    MemWriteOp,
    ReceiveOp,
    ThreadFsm,
    TransmitOp,
)

MASK32 = (1 << 32) - 1
#: the sign bit: ``(a ^ _SIGN) < (b ^ _SIGN)`` orders 32-bit words by
#: their signed values
_SIGN = 1 << 31


@dataclass
class HoldClass:
    """Static classification of how one FSM state holds.

    A state can *hold* when re-running :meth:`ThreadExecutor.phase1` and
    :meth:`ThreadExecutor.phase2` in it, with nothing outside the thread
    moving, is provably a no-op on the architectural state (registers,
    memories, interfaces) apart from per-cycle statistics and the
    re-assertion of the same memory request lines.  The three shapes
    mirror how a blocked FSM state holds in hardware:

    * ``"mem"`` — blocked on a memory request: the request lines stay
      asserted with the same address/data every cycle;
    * ``"recv"`` — blocked on an empty ingress queue: nothing happens
      until a message arrives;
    * ``"terminal"`` — no transition can fire and the state's ops are
      register-idempotent: the FSM holds forever.

    ``kind is None`` means the state never holds (e.g. it transmits a
    message per cycle, or a register feeds back on itself).
    :meth:`ThreadExecutor.holds` combines the kind with the executor's
    run-time condition; the wheel kernel skips only while every
    executor holds.
    """

    kind: Optional[str]
    #: interfaces a "recv" state waits on (it holds while all are empty)
    rx_interfaces: tuple = ()


def _classify_state(state) -> HoldClass:
    """Compute the :class:`HoldClass` of one FSM state.

    The idempotence condition: executing the op list a second time with
    the environment produced by the first execution must yield the same
    environment and the same memory requests.  Sequential evaluation
    makes this hold exactly when no evaluated expression reads a
    register written by a compute op at the *same or a later* position
    (forward-only dataflow) — a self-increment like ``i = i + 1`` or a
    read-before-write pair re-executes differently and disqualifies.
    """
    has_recv = any(isinstance(op, ReceiveOp) for op in state.ops)
    has_tx = any(isinstance(op, TransmitOp) for op in state.ops)
    has_mem = any(
        isinstance(op, (MemReadOp, MemWriteOp)) for op in state.ops
    )
    if has_tx or (has_recv and has_mem):
        # A transmit fires every held cycle; a mixed receive+memory
        # state would consume messages while blocked.  Never holds.
        return HoldClass(kind=None)

    # Registers a grant writes in phase 2: an expression reading one
    # would re-evaluate differently after a granted-but-not-advancing
    # cycle, so such states never hold.
    read_dests = {
        op.dest for op in state.ops if isinstance(op, MemReadOp)
    }

    # Forward-only dataflow check over every evaluated expression.
    for index, op in enumerate(state.ops):
        exprs = []
        if isinstance(op, ComputeOp):
            exprs.append(op.expr)
        elif isinstance(op, (MemReadOp, MemWriteOp)):
            if op.offset_expr is not None:
                exprs.append(op.offset_expr)
            if isinstance(op, MemWriteOp):
                exprs.append(op.value_expr)
        if not exprs:
            continue
        later_dests = {
            later.dest
            for later in state.ops[index:]
            if isinstance(later, ComputeOp)
        }
        reads = set().union(*map(ast.names_read, exprs))
        if reads & (later_dests | read_dests):
            return HoldClass(kind=None)

    if has_mem:
        return HoldClass(kind="mem")
    if has_recv:
        interfaces = tuple(
            op.interface for op in state.ops if isinstance(op, ReceiveOp)
        )
        return HoldClass(kind="recv", rx_interfaces=interfaces)
    # Compute-only (or empty) state: it holds as a terminal wait state
    # once phase 2 found no transition to fire — the environment it
    # re-produces keeps every guard false.
    return HoldClass(kind="terminal")


def to_signed(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value & (1 << 31) else value


def to_unsigned(value: int) -> int:
    return value & MASK32


def default_intrinsic(name: str) -> Callable[..., int]:
    """A deterministic stand-in for an unknown combinational function.

    Mixes the arguments with a Knuth multiplicative hash salted by the
    function name, so distinct functions produce distinct (but repeatable)
    results — adequate for exercising dataflow without the real logic.
    """
    salt = sum(ord(c) for c in name)

    def fn(*args: int) -> int:
        acc = salt & MASK32
        for arg in args:
            acc = (acc * 2654435761 + (arg & MASK32) + 1) & MASK32
        return acc

    return fn


class RxInterface:
    """Ingress side of a network interface: a FIFO the traffic generator
    fills and receive states drain.

    An entry is an explicit message (:meth:`push` copies it) or a lazy
    arrival (:meth:`arrive`): a zero-argument callable that draws the
    message when a receive pops the entry, so a packet no thread
    receives is never built.
    """

    def __init__(self, name: str):
        self.name = name
        self._queue: deque = deque()
        self.delivered = 0

    def push(self, message: dict[str, int]) -> None:
        self._queue.append(dict(message))

    def arrive(self, draw: Callable[[], dict[str, int]]) -> None:
        self._queue.append(draw)

    def pop(self) -> Optional[dict[str, int]]:
        if not self._queue:
            return None
        self.delivered += 1
        message = self._queue.popleft()
        return message() if callable(message) else message

    @property
    def backlog(self) -> int:
        return len(self._queue)


class TxInterface:
    """Egress side: collects transmitted messages with timestamps."""

    def __init__(self, name: str):
        self.name = name
        self.messages: list[tuple[int, dict[str, int]]] = []

    def push(self, cycle: int, message: dict[str, int]) -> None:
        self.messages.append((cycle, dict(message)))

    @property
    def count(self) -> int:
        return len(self.messages)


@dataclass
class ExecutorStats:
    """Per-thread execution statistics."""

    cycles: int = 0
    stall_cycles: int = 0
    state_visits: dict[str, int] = field(default_factory=dict)
    rounds_completed: int = 0
    #: state transitions actually taken — the watchdog's progress signal
    advances: int = 0

    @property
    def utilization(self) -> float:
        if self.cycles == 0:
            return 0.0
        return 1.0 - self.stall_cycles / self.cycles


# -- the decoder -------------------------------------------------------------------


def decode_expr(
    expr: ast.Expr, env: dict[str, int], functions: dict[str, Callable[..., int]]
) -> Callable[[], int]:
    """A closure that evaluates a rewritten (register-only) expression to
    32 bits against the register file ``env``.

    * a register read masks to 32 bits (a read grant leaves the raw, up
      to 36-bit BRAM word in its destination);
    * ``+``, ``-``, ``*`` and ``<<`` wrap modulo 2**32, comparisons are
      signed;
    * ``/`` and ``%`` truncate through float division, as ``int(sl /
      sr)``; a zero divisor gives ``0xFFFFFFFF`` and 0;
    * ``&&`` and ``||`` short-circuit;
    * a call evaluates its arguments, then looks its function up in
      ``functions``, memoizing :func:`default_intrinsic` on a miss.

    Decoding never raises: an expression that cannot be evaluated (an
    unrewritten field access, an unknown operator) decodes to a closure
    that raises its ``TypeError`` or ``ValueError`` when it runs, after
    evaluating the operands that come first.
    """
    if isinstance(expr, ast.IntLiteral):
        value = expr.value & MASK32
        return lambda: value
    if isinstance(expr, ast.CharLiteral):
        value = expr.value & 0xFF
        return lambda: value
    if isinstance(expr, ast.BoolLiteral):
        value = int(expr.value)
        return lambda: value
    if isinstance(expr, ast.Name):
        ident = expr.ident
        get = env.get
        return lambda: get(ident, 0) & MASK32
    if isinstance(expr, ast.Unary):
        return _decode_unary(
            expr.op, decode_expr(expr.operand, env, functions)
        )
    if isinstance(expr, ast.Binary):
        return _decode_binary(
            expr.op,
            decode_expr(expr.left, env, functions),
            decode_expr(expr.right, env, functions),
        )
    if isinstance(expr, ast.Conditional):
        cond = decode_expr(expr.cond, env, functions)
        then_value = decode_expr(expr.then_value, env, functions)
        else_value = decode_expr(expr.else_value, env, functions)
        return lambda: then_value() if cond() else else_value()
    if isinstance(expr, ast.Call):
        return _decode_call(
            expr.callee,
            [decode_expr(arg, env, functions) for arg in expr.args],
            functions,
        )
    message = f"cannot evaluate {type(expr).__name__} at simulation time"

    def unevaluable():
        raise TypeError(message)

    return unevaluable


def _decode_unary(op: str, operand: Callable[[], int]) -> Callable[[], int]:
    if op == "-":
        return lambda: (-operand()) & MASK32
    if op == "!":
        return lambda: 0 if operand() else 1
    if op == "~":
        return lambda: (~operand()) & MASK32

    def unknown():
        operand()
        raise ValueError(f"unknown unary operator {op!r}")

    return unknown


def _decode_binary(
    op: str, left: Callable[[], int], right: Callable[[], int]
) -> Callable[[], int]:
    # Operands are words in [0, 2**32): a ring operation on them agrees
    # with the signed one modulo 2**32 and a comparison orders them by
    # biasing the sign bit, so only / and % convert to signed values.
    if op == "&&":
        return lambda: 1 if left() and right() else 0
    if op == "||":
        return lambda: 1 if left() or right() else 0
    if op == "+":
        return lambda: (left() + right()) & MASK32
    if op == "-":
        return lambda: (left() - right()) & MASK32
    if op == "*":
        return lambda: (left() * right()) & MASK32
    if op == "/":

        def divide():
            sl = to_signed(left())
            sr = to_signed(right())
            if sr == 0:
                return MASK32  # hardware divide-by-zero convention
            return int(sl / sr) & MASK32

        return divide
    if op == "%":

        def modulo():
            sl = to_signed(left())
            sr = to_signed(right())
            if sr == 0:
                return 0
            return (sl - int(sl / sr) * sr) & MASK32

        return modulo
    if op == "<<":
        return lambda: (left() << (right() & 31)) & MASK32
    if op == ">>":
        return lambda: left() >> (right() & 31)
    if op == "&":
        return lambda: left() & right()
    if op == "|":
        return lambda: left() | right()
    if op == "^":
        return lambda: left() ^ right()
    if op == "==":
        return lambda: 1 if left() == right() else 0
    if op == "!=":
        return lambda: 1 if left() != right() else 0
    if op == "<":
        return lambda: 1 if (left() ^ _SIGN) < (right() ^ _SIGN) else 0
    if op == "<=":
        return lambda: 1 if (left() ^ _SIGN) <= (right() ^ _SIGN) else 0
    if op == ">":
        return lambda: 1 if (left() ^ _SIGN) > (right() ^ _SIGN) else 0
    if op == ">=":
        return lambda: 1 if (left() ^ _SIGN) >= (right() ^ _SIGN) else 0

    def unknown():
        left()
        right()
        raise ValueError(f"unknown binary operator {op!r}")

    return unknown


def _decode_call(
    callee: str,
    args: list[Callable[[], int]],
    functions: dict[str, Callable[..., int]],
) -> Callable[[], int]:
    def call():
        values = [arg() for arg in args]
        fn = functions.get(callee)
        if fn is None:
            fn = functions[callee] = default_intrinsic(callee)
        return fn(*values) & MASK32

    return call


def _decode_access(
    op, controller: MemoryController, client: str, port: str,
    env: dict[str, int], functions: dict[str, Callable[..., int]],
) -> Callable[[], None]:
    """A closure that submits ``op``'s request to ``controller``.

    A stalled thread re-asserts the same request lines every cycle, so
    the closure keeps the last request it built and submits it again
    while its address and data are unchanged: no re-construction, and
    observers see a stable identity across stall cycles.
    """
    write = isinstance(op, MemWriteOp)
    base = op.base_address
    dep_id = op.dep_id
    offset = (
        None
        if op.offset_expr is None
        else decode_expr(op.offset_expr, env, functions)
    )
    data = decode_expr(op.value_expr, env, functions) if write else None
    last = None

    def submit():
        nonlocal last
        address = base if offset is None else base + to_signed(offset())
        value = 0 if data is None else data()
        request = last
        if (
            request is None
            or request.address != address
            or request.data != value
        ):
            request = last = MemRequest(
                client=client,
                port=port,
                address=address,
                write=write,
                data=value,
                dep_id=dep_id,
            )
        controller.submit(request)

    return submit


#: micro-op kinds of a :class:`StatePlan` (anything else raises in phase 1)
_COMPUTE, _READ, _WRITE, _RECEIVE, _TRANSMIT = range(5)

#: the grants of a controller that arbitrated nothing (never written)
_NO_RESULTS: dict[str, MemResult] = {}


class StatePlan:
    """One FSM state, decoded for the cycle to run directly.

    ``ops`` holds one ``(kind, operand, run)`` triple per micro-op: a
    compute op's destination and value closure, a memory op and its
    submit closure, a receive or transmit op (``run`` unused).
    ``mem_bram`` is the controller of the state's first memory op, whose
    grant phase 2 checks (``None`` without one); ``transitions`` are
    ``(guard, target, closes_round)`` with ``guard`` a closure or
    ``None``.  ``hold`` is the state's :class:`HoldClass`, classified
    when the wheel first asks (:meth:`ThreadExecutor.hold_class`).
    """

    __slots__ = ("state", "ops", "mem_bram", "transitions", "hold")

    def __init__(self, state, ops, mem_bram, transitions):
        self.state = state
        self.ops = ops
        self.mem_bram = mem_bram
        self.transitions = transitions
        self.hold: Optional[HoldClass] = None


class ThreadExecutor:
    """Cycle-level interpreter for one synthesized thread FSM."""

    def __init__(
        self,
        checked: CheckedProgram,
        memory_map: MemoryMap,
        fsm: ThreadFsm,
        controllers: dict[str, MemoryController],
        functions: Optional[dict[str, Callable[..., int]]] = None,
        rx_interfaces: Optional[dict[str, RxInterface]] = None,
        tx_interfaces: Optional[dict[str, TxInterface]] = None,
        guarded_port_override: Optional[dict[str, str]] = None,
    ):
        self._map = memory_map
        self.fsm = fsm
        self._controllers = controllers
        self._functions = dict(functions or {})
        self._rx = rx_interfaces or {}
        self._tx = tx_interfaces or {}
        #: remap guarded ports per organization: the event-driven wrapper
        #: serves both producer writes and consumer reads on port "B".
        self._port_override = guarded_port_override or {}

        self.env: dict[str, int] = {}
        for name, value in checked.constants.items():
            self.env[name] = to_unsigned(value)
        self.state_name = fsm.initial
        self.stats = ExecutorStats()
        #: state name -> :class:`StatePlan`, decoded on first visit
        self._plans: dict[str, StatePlan] = {}
        #: architectural state at the last completed round — the
        #: phase-insensitive snapshot golden-trace comparison diffs
        self.last_round_env: Optional[dict[str, int]] = None
        self._waiting_read: Optional[MemReadOp] = None
        self._blocked = False

    # -- decoding ---------------------------------------------------------------------

    def _decode(self, name: str) -> StatePlan:
        """Decode state ``name`` into its :class:`StatePlan` (once)."""
        state = self.fsm.states[name]
        env = self.env
        functions = self._functions
        client = self.fsm.thread
        ops = []
        mem_bram = None
        for op in state.ops:
            if isinstance(op, ComputeOp):
                ops.append(
                    (_COMPUTE, op.dest, decode_expr(op.expr, env, functions))
                )
            elif isinstance(op, (MemReadOp, MemWriteOp)):
                if mem_bram is None:
                    mem_bram = op.bram
                port = op.port
                if op.dep_id is not None:
                    port = self._port_override.get(port, port)
                submit = _decode_access(
                    op, self._controllers[op.bram], client, port, env,
                    functions,
                )
                kind = _WRITE if isinstance(op, MemWriteOp) else _READ
                ops.append((kind, op, submit))
            elif isinstance(op, ReceiveOp):
                ops.append((_RECEIVE, op, None))
            elif isinstance(op, TransmitOp):
                ops.append((_TRANSMIT, op, None))
            else:
                ops.append((None, op, None))
        transitions = tuple(
            (
                None
                if transition.guard is None
                else decode_expr(transition.guard, env, functions),
                transition.target,
                transition.target == self.fsm.initial,
            )
            for transition in state.transitions
        )
        plan = self._plans[name] = StatePlan(
            state, tuple(ops), mem_bram, transitions
        )
        return plan

    # -- cycle protocol ---------------------------------------------------------------

    def phase1(self, cycle: int) -> None:
        """Do register work or submit this state's memory/interface request."""
        stats = self.stats
        stats.cycles += 1
        name = self.state_name
        visits = stats.state_visits
        visits[name] = visits.get(name, 0) + 1
        self._blocked = False
        plan = self._plans.get(name) or self._decode(name)
        ops = plan.ops
        if not ops:
            return

        env = self.env
        for kind, operand, run in ops:
            if kind == _COMPUTE:
                env[operand] = run()
            elif kind == _READ:
                run()
                self._waiting_read = operand
                self._blocked = True  # resolved in phase 2 if granted
            elif kind == _WRITE:
                run()
                self._blocked = True
            elif kind == _RECEIVE:
                self._try_receive(operand, cycle)
            elif kind == _TRANSMIT:
                self._do_transmit(operand, cycle)
            else:  # pragma: no cover
                raise TypeError(f"unknown micro-op {type(operand).__name__}")

    def _try_receive(self, op: ReceiveOp, cycle: int) -> None:
        rx = self._rx.get(op.interface)
        message = rx.pop() if rx is not None else None
        if message is None:
            self._blocked = True
            return
        self._store_message(op.target, message)

    def _do_transmit(self, op: TransmitOp, cycle: int) -> None:
        tx = self._tx.get(op.interface)
        if tx is not None:
            tx.push(cycle, self._load_message(op.source))

    # -- message storage (interface-side DMA over the dedicated port) ----------------

    def _message_placement(self, var: str):
        placement = self._map.placements.get((self.fsm.thread, var))
        if placement is None or placement.residency is not Residency.BRAM:
            raise KeyError(
                f"message variable {self.fsm.thread}.{var} is not BRAM-resident"
            )
        return placement

    def _store_message(self, var: str, message: dict[str, int]) -> None:
        placement = self._message_placement(var)
        bram = self._controllers[placement.bram].bram
        for index, field_name in enumerate(MESSAGE_FIELDS):
            bram.write(
                placement.base_address + index, message.get(field_name, 0)
            )

    def _load_message(self, var: str) -> dict[str, int]:
        placement = self._message_placement(var)
        bram = self._controllers[placement.bram].bram
        return {
            field_name: bram.read(placement.base_address + index)
            for index, field_name in enumerate(MESSAGE_FIELDS)
        }

    # -- phase 2 ------------------------------------------------------------------------

    def phase2(self, results: dict[str, dict[str, MemResult]]) -> None:
        """Absorb grants and advance the state register."""
        name = self.state_name
        plan = self._plans.get(name) or self._decode(name)
        if self._blocked:
            bram = plan.mem_bram
            result = (
                None
                if bram is None
                else results.get(bram, _NO_RESULTS).get(self.fsm.thread)
            )
            if result is None or not result.granted:
                self.stats.stall_cycles += 1
                self._waiting_read = None
                return
            if self._waiting_read is not None:
                self.env[self._waiting_read.dest] = result.data
        self._waiting_read = None
        for guard, target, closes_round in plan.transitions:
            if guard is None or guard():
                stats = self.stats
                if closes_round:
                    stats.rounds_completed += 1
                    self.last_round_env = dict(self.env)
                self.state_name = target
                stats.advances += 1
                return
        # A state with no matching transition holds (terminal wait state).
        self.stats.stall_cycles += 1

    # -- holding (read by the wheel's skip decision, see repro.sim.wheel) --------

    def hold_class(self) -> HoldClass:
        """The hold classification of the current state, kept in its
        plan after the first time it is asked for."""
        name = self.state_name
        plan = self._plans.get(name) or self._decode(name)
        hold = plan.hold
        if hold is None:
            hold = plan.hold = _classify_state(plan.state)
        return hold

    def holds(self) -> bool:
        """Whether the current state holds until something outside the
        thread moves: a memory wait while it is blocked, a receive wait
        while it is blocked and every queue it watches is empty, a
        terminal state while it is unblocked.  Nothing else holds."""
        hold = self.hold_class()
        kind = hold.kind
        if kind == "mem":
            return self._blocked
        if kind == "recv":
            rx = self._rx
            return self._blocked and not any(
                rx[interface].backlog
                for interface in hold.rx_interfaces
                if interface in rx
            )
        return kind == "terminal" and not self._blocked

    def hold_idle(self, count: int) -> None:
        """Account ``count`` skipped cycles spent holding in this state.

        Mirrors the per-cycle increments the reference kernel performs
        for a held state: every shape that holds stalls every cycle (a
        blocked "mem"/"recv" state stalls in phase 2, a "terminal"
        state stalls when no transition fires).
        """
        self.stats.cycles += count
        self.stats.stall_cycles += count
        self.stats.state_visits[self.state_name] = (
            self.stats.state_visits.get(self.state_name, 0) + count
        )
