"""Operation resource classes for behavioral synthesis.

The paper (section 3) applies "a series of synthesis steps ... well
researched in the behavioral synthesis community [6]" to turn hic threads
into cycle-accurate state machines.  The FSM builder emits one state per
statement; what the later steps need from scheduling is how many
operations of each resource class one cycle's datapath may hold.
:func:`repro.synth.optimize.pack_compute_states` packs register-only
states against :data:`DEFAULT_RESOURCES`, and binding
(:mod:`repro.synth.binding`) sizes each thread's functional units from
:func:`expression_operations`.
"""

from __future__ import annotations

from ..hic import ast

#: Default resource constraints: how many operations of each class may be
#: scheduled in one cycle.  Memory ports are the scarce resource the paper
#: cares about; ALU-class limits model a modest datapath.
DEFAULT_RESOURCES: dict[str, int] = {
    "alu": 2,       # add/sub/logic
    "mul": 1,       # multiply/divide/modulo
    "cmp": 2,       # comparisons
    "mem": 1,       # memory accesses per port per cycle
    "call": 1,      # combinational function blocks
}


def op_class(op: str) -> str:
    """Resource class of an expression operator."""
    if op in ("*", "/", "%"):
        return "mul"
    if op in ("==", "!=", "<", "<=", ">", ">=") or op in ("&&", "||", "!"):
        return "cmp"
    return "alu"


def expression_operations(expr: ast.Expr) -> list[tuple[str, str]]:
    """``(resource class, label)`` of every operation in an expression,
    depth-first pre-order."""
    ops: list[tuple[str, str]] = []
    for node in ast.walk(expr):
        if isinstance(node, (ast.Binary, ast.Unary)):
            ops.append((op_class(node.op), node.op))
        elif isinstance(node, ast.Conditional):
            ops.append(("alu", "?:"))
        elif isinstance(node, ast.Call):
            ops.append(("call", node.callee))
    return ops
