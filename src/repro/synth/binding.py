"""Datapath resource binding.

After scheduling, behavioral synthesis binds operations to functional units
and variables to registers.  The binding summary produced here is what the
FPGA area model charges for each thread's datapath: functional units, the
register file, and the multiplexing needed to steer operands into shared
units.  Every register-resident variable gets a register of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..hic.semantic import CheckedProgram, SymbolKind
from ..memory.allocation import MemoryMap, Residency
from .fsm import ComputeOp, MemReadOp, MemWriteOp, ThreadFsm
from .schedule import expression_operations


@dataclass
class FunctionalUnit:
    """One bound functional unit and the operations sharing it."""

    kind: str            # alu / mul / cmp / call
    width: int
    operations: list[str] = field(default_factory=list)

    @property
    def mux_inputs(self) -> int:
        """Operand sources multiplexed into this unit (2 per operation)."""
        return max(2, 2 * len(self.operations))


@dataclass
class RegisterBinding:
    """One datapath register, holding one variable or load temporary."""

    name: str
    width: int


@dataclass
class DatapathSummary:
    """The bound datapath of one thread, consumed by the area model."""

    thread: str
    units: list[FunctionalUnit] = field(default_factory=list)
    registers: list[RegisterBinding] = field(default_factory=list)
    state_bits: int = 1
    memory_ports_used: set[str] = field(default_factory=set)
    #: fabric banks this thread's memory ops touch (empty outside fabric
    #: mode); >1 bank means the thread needs a return-data mux
    memory_banks_used: set[str] = field(default_factory=set)


def bind_thread(
    checked: CheckedProgram,
    memory_map: MemoryMap,
    fsm: ThreadFsm,
    bank_of: "Callable[[int], str] | None" = None,
) -> DatapathSummary:
    """Bind one synthesized thread's datapath.

    Binding policy: operations of the same class in *different* states can
    share one unit (they are mutually exclusive in time); the unit count of
    a class is therefore the maximum number of that class used in any
    single state, and sharing across states adds multiplexer inputs.
    ``bank_of`` (fabric mode only) maps a logical word address to the
    fabric bank serving it, so the summary records which banks the thread's
    memory ports fan out to.
    """
    summary = DatapathSummary(thread=fsm.thread, state_bits=fsm.state_bits())

    # Per-state operation demand.  A state's n-th operation of a class
    # binds to that class's n-th unit, so a class gets as many units as
    # the state using it most needs.
    unit_labels: dict[str, list[list[str]]] = {}
    load_temps: set[str] = set()
    for state in fsm.states.values():
        state_ops: list[tuple[str, str]] = []
        for op in state.ops:
            if isinstance(op, ComputeOp):
                state_ops.extend(expression_operations(op.expr))
            elif isinstance(op, MemWriteOp):
                state_ops.extend(expression_operations(op.value_expr))
                if op.offset_expr is not None:
                    state_ops.extend(expression_operations(op.offset_expr))
                    state_ops.append(("alu", "+addr"))
                summary.memory_ports_used.add(op.port)
                if bank_of is not None:
                    summary.memory_banks_used.add(bank_of(op.base_address))
            elif isinstance(op, MemReadOp):
                load_temps.add(op.dest)
                if op.offset_expr is not None:
                    state_ops.extend(expression_operations(op.offset_expr))
                    state_ops.append(("alu", "+addr"))
                summary.memory_ports_used.add(op.port)
                if bank_of is not None:
                    summary.memory_banks_used.add(bank_of(op.base_address))
        used: dict[str, int] = {}
        for kind, label in state_ops:
            slot = used.get(kind, 0)
            used[kind] = slot + 1
            units = unit_labels.setdefault(kind, [])
            if slot == len(units):
                units.append([])
            units[slot].append(label)

    for kind in sorted(unit_labels):
        summary.units.extend(
            FunctionalUnit(kind=kind, width=32, operations=labels)
            for labels in unit_labels[kind]
        )

    # Registers: thread-local register-resident variables plus load temps.
    scope = checked.scopes[fsm.thread]
    for name, symbol in sorted(scope.symbols.items()):
        if symbol.kind in (SymbolKind.CONSTANT, SymbolKind.SHARED):
            continue
        placement = memory_map.placements.get((fsm.thread, name))
        if placement is not None and placement.residency is Residency.REGISTER:
            summary.registers.append(
                RegisterBinding(name=name, width=symbol.hic_type.bit_width)
            )

    for temp in sorted(load_temps):
        # Load registers mirror a BRAM word (36 bits max, typically 32).
        summary.registers.append(RegisterBinding(name=temp, width=32))

    return summary


def bind_program(
    checked: CheckedProgram,
    memory_map: MemoryMap,
    fsms: dict[str, ThreadFsm],
    bank_of: "Callable[[int], str] | None" = None,
) -> dict[str, DatapathSummary]:
    """Bind every thread's datapath."""
    return {
        name: bind_thread(checked, memory_map, fsm, bank_of=bank_of)
        for name, fsm in fsms.items()
    }
