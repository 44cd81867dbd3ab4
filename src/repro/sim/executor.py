"""FSM thread executor: interprets synthesized thread FSMs cycle by cycle.

Each :class:`ThreadExecutor` owns one thread's datapath state (its register
environment) and walks its FSM under the two-phase protocol of
:mod:`repro.sim.kernel`:

* **phase 1** — the executor performs the current state's register-only
  work, or submits its memory request / checks its interface;
* **phase 2** — after the memory controllers arbitrate, granted executors
  absorb read data and take a transition; blocked executors stay put (the
  hardware analogue: the FSM state register holds).

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
        self._checked = checked
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
        #: per-state :class:`HoldClass` cache for :meth:`holds`
        self._hold_classes: dict[str, HoldClass] = {}
        #: architectural state at the last completed round — the
        #: phase-insensitive snapshot golden-trace comparison diffs
        self.last_round_env: Optional[dict[str, int]] = None
        self._waiting_read: Optional[MemReadOp] = None
        #: last request constructed per micro-op (keyed by op identity):
        #: a stalled thread re-asserts the same request lines every
        #: cycle, so reusing the frozen object skips re-construction —
        #: and gives observers a stable identity across stall cycles
        self._req_cache: dict[int, MemRequest] = {}
        self._op_index = 0
        self._blocked = False

    # -- expression evaluation ------------------------------------------------------

    def evaluate(self, expr: ast.Expr) -> int:
        """Evaluate a rewritten (register-only) expression to 32 bits."""
        if isinstance(expr, ast.IntLiteral):
            return to_unsigned(expr.value)
        if isinstance(expr, ast.CharLiteral):
            return expr.value & 0xFF
        if isinstance(expr, ast.BoolLiteral):
            return int(expr.value)
        if isinstance(expr, ast.Name):
            return to_unsigned(self.env.get(expr.ident, 0))
        if isinstance(expr, ast.Unary):
            operand = self.evaluate(expr.operand)
            if expr.op == "-":
                return to_unsigned(-to_signed(operand))
            if expr.op == "!":
                return int(operand == 0)
            if expr.op == "~":
                return to_unsigned(~operand)
            raise ValueError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr)
        if isinstance(expr, ast.Conditional):
            if self.evaluate(expr.cond):
                return self.evaluate(expr.then_value)
            return self.evaluate(expr.else_value)
        if isinstance(expr, ast.Call):
            args = [self.evaluate(a) for a in expr.args]
            fn = self._functions.get(expr.callee)
            if fn is None:
                fn = default_intrinsic(expr.callee)
                self._functions[expr.callee] = fn
            return to_unsigned(fn(*args))
        raise TypeError(
            f"cannot evaluate {type(expr).__name__} at simulation time"
        )

    def _eval_binary(self, expr: ast.Binary) -> int:
        op = expr.op
        left = self.evaluate(expr.left)
        if op == "&&":
            return int(bool(left) and bool(self.evaluate(expr.right)))
        if op == "||":
            return int(bool(left) or bool(self.evaluate(expr.right)))
        right = self.evaluate(expr.right)
        sl, sr = to_signed(left), to_signed(right)
        if op == "+":
            return to_unsigned(sl + sr)
        if op == "-":
            return to_unsigned(sl - sr)
        if op == "*":
            return to_unsigned(sl * sr)
        if op == "/":
            if sr == 0:
                return MASK32  # hardware divide-by-zero convention
            return to_unsigned(int(sl / sr))
        if op == "%":
            if sr == 0:
                return 0
            return to_unsigned(sl - int(sl / sr) * sr)
        if op == "<<":
            return to_unsigned(left << (right & 31))
        if op == ">>":
            return to_unsigned(left >> (right & 31))
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "<":
            return int(sl < sr)
        if op == "<=":
            return int(sl <= sr)
        if op == ">":
            return int(sl > sr)
        if op == ">=":
            return int(sl >= sr)
        raise ValueError(f"unknown binary operator {op!r}")

    # -- cycle protocol ---------------------------------------------------------------

    @property
    def state(self):
        return self.fsm.states[self.state_name]

    def phase1(self, cycle: int) -> None:
        """Do register work or submit this state's memory/interface request."""
        self.stats.cycles += 1
        self.stats.state_visits[self.state_name] = (
            self.stats.state_visits.get(self.state_name, 0) + 1
        )
        self._blocked = False
        state = self.state
        ops = state.ops
        if not ops:
            return

        for op in ops:
            if isinstance(op, ComputeOp):
                self.env[op.dest] = self.evaluate(op.expr)
            elif isinstance(op, MemReadOp):
                self._submit_read(op)
            elif isinstance(op, MemWriteOp):
                self._submit_write(op)
            elif isinstance(op, ReceiveOp):
                self._try_receive(op, cycle)
            elif isinstance(op, TransmitOp):
                self._do_transmit(op, cycle)
            else:  # pragma: no cover
                raise TypeError(f"unknown micro-op {type(op).__name__}")

    def _address_of(self, op) -> int:
        address = op.base_address
        if op.offset_expr is not None:
            address += to_signed(self.evaluate(op.offset_expr))
        return address

    def _port_for(self, op) -> str:
        if op.dep_id is not None:
            return self._port_override.get(op.port, op.port)
        return op.port

    def _submit_read(self, op: MemReadOp) -> None:
        controller = self._controllers[op.bram]
        port = self._port_for(op)
        address = self._address_of(op)
        request = self._req_cache.get(id(op))
        if (
            request is None
            or request.port != port
            or request.address != address
        ):
            request = MemRequest(
                client=self.fsm.thread,
                port=port,
                address=address,
                write=False,
                dep_id=op.dep_id,
            )
            self._req_cache[id(op)] = request
        controller.submit(request)
        self._waiting_read = op
        self._blocked = True  # resolved in phase 2 if granted

    def _submit_write(self, op: MemWriteOp) -> None:
        controller = self._controllers[op.bram]
        port = self._port_for(op)
        address = self._address_of(op)
        data = self.evaluate(op.value_expr)
        request = self._req_cache.get(id(op))
        if (
            request is None
            or request.port != port
            or request.address != address
            or request.data != data
        ):
            request = MemRequest(
                client=self.fsm.thread,
                port=port,
                address=address,
                write=True,
                data=data,
                dep_id=op.dep_id,
            )
            self._req_cache[id(op)] = request
        controller.submit(request)
        self._blocked = True

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
        state = self.state
        if self._blocked:
            granted = False
            if state.memory_ops:
                op = state.memory_ops[0]
                result = results.get(op.bram, {}).get(self.fsm.thread)
                if result is not None and result.granted:
                    granted = True
                    if self._waiting_read is not None:
                        self.env[self._waiting_read.dest] = result.data
            if not granted:
                self.stats.stall_cycles += 1
                self._waiting_read = None
                return
        self._waiting_read = None
        self._advance()

    def _advance(self) -> None:
        state = self.state
        for transition in state.transitions:
            if transition.guard is None or self.evaluate(transition.guard):
                if transition.target == self.fsm.initial:
                    self.stats.rounds_completed += 1
                    self.last_round_env = dict(self.env)
                self.state_name = transition.target
                self.stats.advances += 1
                return
        # A state with no matching transition holds (terminal wait state).
        self.stats.stall_cycles += 1

    # -- holding (read by the wheel's skip decision, see repro.sim.wheel) --------

    def hold_class(self) -> HoldClass:
        """The (cached) hold classification of the current state."""
        hold = self._hold_classes.get(self.state_name)
        if hold is None:
            hold = _classify_state(self.state)
            self._hold_classes[self.state_name] = hold
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
        state stalls in ``_advance``).
        """
        self.stats.cycles += count
        self.stats.stall_cycles += count
        self.stats.state_visits[self.state_name] = (
            self.stats.state_visits.get(self.state_name, 0) + count
        )
