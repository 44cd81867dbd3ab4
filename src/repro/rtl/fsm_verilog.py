"""Behavioral Verilog emission for synthesized thread FSMs.

While :mod:`repro.rtl.generate` produces the *structural* thread modules
the area model prices, this module emits each thread as a complete
behavioral Verilog state machine — the RTL a designer would actually read:
state localparams, a clocked ``case`` over the state register, datapath
register updates, and the request/grant handshake toward the memory
wrapper:

* a memory state asserts ``mem_req`` (with bank/port/address/write-data)
  and holds until ``mem_grant`` — exactly the blocking semantics the
  controllers implement;
* ``receive`` states use an ``rx_ready``/``rx_valid`` handshake (message
  payload is DMA-ed into the thread's BRAM region by the interface, as in
  the simulator);
* hic's combinational functions are emitted as Verilog ``function``
  definitions computing the same Knuth-hash mixing as the simulator's
  :func:`repro.sim.executor.default_intrinsic`, so the RTL and the Python
  simulation are behaviorally aligned even for unbound intrinsics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hic import ast
from ..synth.fsm import (
    ComputeOp,
    MemReadOp,
    MemWriteOp,
    ReceiveOp,
    ThreadFsm,
    TransmitOp,
)

#: Verilog operator spellings (hic operators map 1:1).
_BINOP = {
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
    "<<": "<<", ">>": ">>", "&": "&", "|": "|", "^": "^",
    "==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "&&": "&&", "||": "||",
}


#: Verilog-2001 reserved words (IEEE 1364-2001, Annex B).
VERILOG_KEYWORDS = frozenset(
    """
    always and assign automatic begin buf bufif0 bufif1 case casex casez
    cell cmos config deassign default defparam design disable edge else
    end endcase endconfig endfunction endgenerate endmodule endprimitive
    endspecify endtable endtask event for force forever fork function
    generate genvar highz0 highz1 if ifnone incdir include initial inout
    input instance integer join large liblist library localparam
    macromodule medium module nand negedge nmos nor noshowcancelled not
    notif0 notif1 or output parameter pmos posedge primitive pull0 pull1
    pulldown pullup pulsestyle_ondetect pulsestyle_onevent rcmos real
    realtime reg release repeat rnmos rpmos rtran rtranif0 rtranif1
    scalared showcancelled signed small specify specparam strong0
    strong1 supply0 supply1 table task time tran tranif0 tranif1 tri
    tri0 tri1 triand trior trireg unsigned use vectored wait wand weak0
    weak1 while wire wor xnor xor
    """.split()
)


def sanitize(name: str) -> str:
    """A hic name as a Verilog identifier, before clashes are resolved
    (see :func:`_verilog_names`)."""
    return name.replace("$", "tmp_").replace(".", "_")


def _verilog_names(names: set[str], reserved: set[str]) -> dict[str, str]:
    """Each hic name's identifier in one module: :func:`sanitize`'s,
    unless that is a Verilog keyword, a name the module declares itself
    (``reserved``) or an earlier name's identifier; then it gets
    trailing underscores until it is none of these."""
    used = set(VERILOG_KEYWORDS | reserved)
    idents: dict[str, str] = {}
    clashing = []
    for name in sorted(names):
        ident = sanitize(name)
        if ident in used:
            clashing.append(name)
        else:
            idents[name] = ident
            used.add(ident)
    for name in clashing:
        ident = sanitize(name) + "_"
        while ident in used:
            ident += "_"
        idents[name] = ident
        used.add(ident)
    return idents


@dataclass
class _ExprRenderer:
    """Renders hic expressions as Verilog, collecting used functions."""

    #: hic name -> Verilog identifier (:func:`_verilog_names`)
    names: dict
    functions: set = field(default_factory=set)

    def render(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLiteral):
            return f"32'd{expr.value & 0xFFFFFFFF}"
        if isinstance(expr, ast.CharLiteral):
            return f"8'd{expr.value}"
        if isinstance(expr, ast.BoolLiteral):
            return "1'b1" if expr.value else "1'b0"
        if isinstance(expr, ast.Name):
            return self.names[expr.ident]
        if isinstance(expr, ast.Unary):
            op = {"-": "-", "!": "!", "~": "~"}[expr.op]
            return f"({op}{self.render(expr.operand)})"
        if isinstance(expr, ast.Binary):
            if expr.op not in _BINOP:
                raise ValueError(f"operator {expr.op!r} has no Verilog form")
            return (
                f"({self.render(expr.left)} {_BINOP[expr.op]} "
                f"{self.render(expr.right)})"
            )
        if isinstance(expr, ast.Conditional):
            return (
                f"({self.render(expr.cond)} ? "
                f"{self.render(expr.then_value)} : "
                f"{self.render(expr.else_value)})"
            )
        if isinstance(expr, ast.Call):
            self.functions.add((expr.callee, len(expr.args)))
            args = ", ".join(self.render(a) for a in expr.args)
            return f"fn_{sanitize(expr.callee)}({args})"
        raise TypeError(
            f"cannot render {type(expr).__name__} in thread Verilog"
        )


def _function_definition(name: str, arity: int) -> str:
    """A Verilog function mirroring ``default_intrinsic`` exactly."""
    salt = sum(ord(c) for c in name) & 0xFFFFFFFF
    inputs = "\n".join(
        f"  input [31:0] a{i};" for i in range(arity)
    )
    mixing = "\n".join(
        f"    acc = acc * 32'd2654435761 + a{i} + 32'd1;"
        for i in range(arity)
    )
    return (
        f"function [31:0] fn_{sanitize(name)};\n"
        f"{inputs}\n"
        "  reg [31:0] acc;\n"
        "  begin\n"
        f"    acc = 32'd{salt};\n"
        f"{mixing}\n"
        f"    fn_{sanitize(name)} = acc;\n"
        "  end\n"
        "endfunction"
    )


#: Wrapper-port encoding on the memory interface (2 bits).
_PORT_CODE = {"A": 0, "B": 1, "C": 2, "D": 3}


def emit_thread_verilog(
    fsm: ThreadFsm,
    banks: list[str] | None = None,
    constants: dict[str, int] | None = None,
) -> str:
    """Emit one thread FSM as a behavioral Verilog module.

    Args:
        fsm: The synthesized (optionally optimized) thread FSM.
        banks: Memory bank names in bank-select order; defaults to the
            banks the FSM actually touches, sorted.
        constants: ``#constant`` pragma values, emitted as localparams.
    """
    constants = dict(constants or {})
    state_names = list(fsm.states)
    state_index = {name: i for i, name in enumerate(state_names)}
    state_bits = max(1, (len(state_names) - 1).bit_length())

    if banks is None:
        banks = sorted(
            {
                op.bram
                for state in fsm.states.values()
                for op in state.ops
                if isinstance(op, (MemReadOp, MemWriteOp))
            }
        )
    bank_index = {bank: i for i, bank in enumerate(banks)}
    bank_bits = max(1, (len(banks) - 1).bit_length()) if banks else 1

    # Datapath registers: compute destinations, memory-load targets, and
    # every plain variable referenced by an expression (read-before-write
    # registers power up at x in hardware; the simulator models them as 0).
    registers: set[str] = set()
    exprs: list[ast.Expr] = []
    uses_rx = uses_tx = uses_mem = False

    for state in fsm.states.values():
        exprs.extend(tr.guard for tr in state.transitions)
        for op in state.ops:
            if isinstance(op, ComputeOp):
                registers.add(op.dest)
                exprs.append(op.expr)
            elif isinstance(op, MemReadOp):
                registers.add(op.dest)
                exprs.append(op.offset_expr)
                uses_mem = True
            elif isinstance(op, MemWriteOp):
                exprs.extend((op.value_expr, op.offset_expr))
                uses_mem = True
            elif isinstance(op, ReceiveOp):
                uses_rx = True
            elif isinstance(op, TransmitOp):
                uses_tx = True
    exprs = [expr for expr in exprs if expr is not None]
    for expr in exprs:
        registers.update(ast.names_read(expr) - constants.keys())

    lines: list[str] = []
    lines.append(f"module thread_{fsm.thread}_fsm (")
    ports = ["  input  wire clk", "  input  wire rst"]
    if uses_mem:
        ports += [
            "  output reg  mem_req",
            "  output reg  mem_we",
            f"  output reg  [{bank_bits - 1}:0] mem_bank",
            "  output reg  [1:0] mem_port",
            "  output reg  [8:0] mem_addr",
            "  output reg  [35:0] mem_wdata",
            "  input  wire mem_grant",
            "  input  wire [35:0] mem_rdata",
        ]
    if uses_rx:
        ports += ["  output reg  rx_ready", "  input  wire rx_valid"]
    if uses_tx:
        ports += ["  output reg  tx_valid", "  input  wire tx_ready"]
    lines.append(",\n".join(ports))
    lines.append(");")
    lines.append("")

    # Names the module declares itself: ports, the state register and
    # its localparams, and one function per called intrinsic.
    reserved = {port.split()[-1] for port in ports} | {"state"}
    reserved.update(f"S_{name.upper()}" for name in state_names)
    reserved.update(
        f"fn_{sanitize(node.callee)}"
        for expr in exprs
        for node in ast.walk(expr)
        if isinstance(node, ast.Call)
    )
    names = _verilog_names(registers | constants.keys(), reserved)
    renderer = _ExprRenderer(names)

    for i, name in enumerate(state_names):
        lines.append(f"  localparam S_{name.upper()} = {state_bits}'d{i};")
    lines.append(f"  reg [{state_bits - 1}:0] state;")
    lines.append("")
    for name, value in sorted(constants.items()):
        lines.append(
            f"  localparam [31:0] {names[name]} = 32'd{value & 0xFFFFFFFF};"
        )
    for reg in sorted(registers):
        lines.append(f"  reg [31:0] {names[reg]} = 32'd0;")
    lines.append("")

    # Body: collect statements first so function definitions (discovered
    # during rendering) can be placed before the always block.
    body: list[str] = []
    body.append("  always @(posedge clk) begin")
    body.append("    if (rst) begin")
    body.append(f"      state <= S_{fsm.initial.upper()};")
    if uses_mem:
        body.append("      mem_req <= 1'b0;")
    if uses_rx:
        body.append("      rx_ready <= 1'b0;")
    if uses_tx:
        body.append("      tx_valid <= 1'b0;")
    body.append("    end else begin")
    if uses_mem:
        body.append("      mem_req <= 1'b0;")
    if uses_rx:
        body.append("      rx_ready <= 1'b0;")
    if uses_tx:
        body.append("      tx_valid <= 1'b0;")
    body.append("      case (state)")

    for name in state_names:
        state = fsm.states[name]
        body.append(f"        S_{name.upper()}: begin")
        advance = _render_transitions(state, renderer, indent="          ")
        mem_ops = [
            op for op in state.ops if isinstance(op, (MemReadOp, MemWriteOp))
        ]
        if mem_ops:
            op = mem_ops[0]
            address = f"9'd{op.base_address}"
            if op.offset_expr is not None:
                address = (
                    f"(9'd{op.base_address} + "
                    f"{renderer.render(op.offset_expr)}[8:0])"
                )
            body.append("          mem_req  <= 1'b1;")
            body.append(
                f"          mem_bank <= {bank_bits}'d"
                f"{bank_index.get(op.bram, 0)};"
            )
            body.append(f"          mem_port <= 2'd{_PORT_CODE[op.port]};")
            body.append(f"          mem_addr <= {address};")
            if isinstance(op, MemWriteOp):
                body.append("          mem_we   <= 1'b1;")
                body.append(
                    "          mem_wdata <= {4'd0, "
                    f"{renderer.render(op.value_expr)}}};"
                )
            else:
                body.append("          mem_we   <= 1'b0;")
            body.append("          if (mem_grant) begin")
            if isinstance(op, MemReadOp):
                body.append(
                    f"            {names[op.dest]} <= mem_rdata[31:0];"
                )
            body.extend("  " + line for line in advance)
            body.append("          end")
        elif any(isinstance(op, ReceiveOp) for op in state.ops):
            body.append("          rx_ready <= 1'b1;")
            body.append("          if (rx_valid) begin")
            body.extend("  " + line for line in advance)
            body.append("          end")
        elif any(isinstance(op, TransmitOp) for op in state.ops):
            body.append("          tx_valid <= 1'b1;")
            body.append("          if (tx_ready) begin")
            body.extend("  " + line for line in advance)
            body.append("          end")
        else:
            for op in state.ops:
                assert isinstance(op, ComputeOp)
                body.append(
                    f"          {names[op.dest]} <= "
                    f"{renderer.render(op.expr)};"
                )
            body.extend(advance)
        body.append("        end")

    body.append(f"        default: state <= S_{fsm.initial.upper()};")
    body.append("      endcase")
    body.append("    end")
    body.append("  end")

    for fn_name, arity in sorted(renderer.functions):
        lines.append("  " + _function_definition(fn_name, arity).replace(
            "\n", "\n  "
        ))
        lines.append("")
    lines.extend(body)
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _render_transitions(state, renderer: _ExprRenderer, indent: str) -> list[str]:
    """The state's next-state logic as Verilog lines."""
    lines: list[str] = []
    if not state.transitions:
        return [f"{indent}state <= state;  // terminal wait"]
    open_branches = 0
    for i, transition in enumerate(state.transitions):
        target = f"S_{transition.target.upper()}"
        if transition.guard is None:
            pad = indent + "  " * open_branches
            lines.append(f"{pad}state <= {target};")
            break
        guard = renderer.render(transition.guard)
        pad = indent + "  " * open_branches
        lines.append(f"{pad}if ({guard} != 0) state <= {target};")
        lines.append(f"{pad}else begin")
        open_branches += 1
    for level in range(open_branches, 0, -1):
        pad = indent + "  " * (level - 1)
        lines.append(f"{pad}end")
    return lines
