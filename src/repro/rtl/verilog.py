"""Verilog-2001 emission from the structural netlist.

The emitter prints a self-contained translation unit: behavioural
definitions for every macro primitive actually used, followed by the
module hierarchy bottom-up.  This is the reproduction of the paper's
"RTL HDL description is generated ... then fed into standard synthesis,
place, and route tools" step — the output is what would be handed to ISE.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

from . import primitives as prim
from .netlist import Instance, Module, PortDirection


def _bus(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


#: Behavioural Verilog for each macro primitive type.  Parameter names
#: match the dataclass fields so instance overrides line up.
_PRIMITIVE_DEFS: dict[type, str] = {
    prim.Register: """
module repro_register #(parameter WIDTH = 1) (
  input  wire clk,
  input  wire en,
  input  wire [WIDTH-1:0] d,
  output reg  [WIDTH-1:0] q
);
  always @(posedge clk) if (en) q <= d;
endmodule
""",
    prim.Counter: """
module repro_counter #(parameter WIDTH = 4) (
  input  wire clk,
  input  wire rst,
  input  wire load,
  input  wire down,
  input  wire [WIDTH-1:0] load_value,
  output reg  [WIDTH-1:0] count,
  output wire nonzero
);
  assign nonzero = |count;
  always @(posedge clk)
    if (rst) count <= {WIDTH{1'b0}};
    else if (load) count <= load_value;
    else if (down) count <= count - 1'b1;
endmodule
""",
    prim.Adder: """
module repro_adder #(parameter WIDTH = 32) (
  input  wire [WIDTH-1:0] a,
  input  wire [WIDTH-1:0] b,
  output wire [WIDTH-1:0] sum
);
  assign sum = a + b;
endmodule
""",
    prim.Mux: """
module repro_mux #(parameter WIDTH = 1, parameter INPUTS = 2) (
  input  wire [WIDTH*INPUTS-1:0] in_bus,
  input  wire [$clog2(INPUTS > 1 ? INPUTS : 2)-1:0] sel,
  output wire [WIDTH-1:0] out
);
  assign out = in_bus[sel*WIDTH +: WIDTH];
endmodule
""",
    prim.Demux: """
module repro_demux #(parameter WIDTH = 1, parameter OUTPUTS = 2) (
  input  wire [WIDTH-1:0] in,
  input  wire [$clog2(OUTPUTS > 1 ? OUTPUTS : 2)-1:0] sel,
  output wire [WIDTH*OUTPUTS-1:0] out_bus
);
  genvar i;
  generate
    for (i = 0; i < OUTPUTS; i = i + 1) begin : g
      assign out_bus[i*WIDTH +: WIDTH] = (sel == i) ? in : {WIDTH{1'b0}};
    end
  endgenerate
endmodule
""",
    prim.EqComparator: """
module repro_eq_comparator #(parameter WIDTH = 9) (
  input  wire [WIDTH-1:0] a,
  input  wire [WIDTH-1:0] b,
  output wire eq
);
  assign eq = (a == b);
endmodule
""",
    prim.MagComparator: """
module repro_mag_comparator #(parameter WIDTH = 32) (
  input  wire [WIDTH-1:0] a,
  input  wire [WIDTH-1:0] b,
  output wire lt,
  output wire eq
);
  assign lt = (a < b);
  assign eq = (a == b);
endmodule
""",
    prim.Decoder: """
module repro_decoder #(parameter OUTPUTS = 4) (
  input  wire [$clog2(OUTPUTS > 1 ? OUTPUTS : 2)-1:0] sel,
  input  wire en,
  output wire [OUTPUTS-1:0] onehot
);
  assign onehot = en ? ({{OUTPUTS-1{1'b0}}, 1'b1} << sel) : {OUTPUTS{1'b0}};
endmodule
""",
    prim.PriorityEncoder: """
module repro_priority_encoder #(parameter INPUTS = 3) (
  input  wire [INPUTS-1:0] req,
  output reg  [$clog2(INPUTS > 1 ? INPUTS : 2)-1:0] sel,
  output wire any
);
  integer i;
  assign any = |req;
  always @* begin
    sel = {$clog2(INPUTS > 1 ? INPUTS : 2){1'b0}};
    for (i = INPUTS - 1; i >= 0; i = i - 1)
      if (req[i]) sel = i[$clog2(INPUTS > 1 ? INPUTS : 2)-1:0];
  end
endmodule
""",
    prim.RoundRobinArbiterMacro: """
module repro_rr_arbiter #(parameter CLIENTS = 8) (
  input  wire clk,
  input  wire rst,
  input  wire [CLIENTS-1:0] req,
  output reg  [CLIENTS-1:0] grant
);
  // Rotate-pointer round-robin: mask requests above the pointer, fall back
  // to the unmasked set when the masked set is empty.
  reg [$clog2(CLIENTS > 1 ? CLIENTS : 2)-1:0] pointer;
  reg [CLIENTS-1:0] masked;
  integer i;
  always @* begin
    masked = {CLIENTS{1'b0}};
    for (i = 0; i < CLIENTS; i = i + 1)
      if (i >= pointer) masked[i] = req[i];
    grant = {CLIENTS{1'b0}};
    if (|masked) begin
      for (i = CLIENTS - 1; i >= 0; i = i - 1)
        if (masked[i]) grant = ({{CLIENTS-1{1'b0}}, 1'b1} << i);
    end else if (|req) begin
      for (i = CLIENTS - 1; i >= 0; i = i - 1)
        if (req[i]) grant = ({{CLIENTS-1{1'b0}}, 1'b1} << i);
    end
  end
  always @(posedge clk)
    if (rst) pointer <= {$clog2(CLIENTS > 1 ? CLIENTS : 2){1'b0}};
    else begin
      for (i = 0; i < CLIENTS; i = i + 1)
        if (grant[i]) pointer <= (i + 1) % CLIENTS;
    end
endmodule
""",
    prim.CamRow: """
module repro_cam_row #(parameter KEY_BITS = 9) (
  input  wire clk,
  input  wire write,
  input  wire [KEY_BITS-1:0] write_key,
  input  wire [KEY_BITS-1:0] search_key,
  output wire match
);
  reg [KEY_BITS-1:0] key;
  reg valid;
  assign match = valid && (key == search_key);
  always @(posedge clk)
    if (write) begin
      key <= write_key;
      valid <= 1'b1;
    end
endmodule
""",
    prim.FsmLogic: """
module repro_fsm #(parameter STATES = 4, parameter TRANSITIONS = 6) (
  input  wire clk,
  input  wire rst,
  input  wire [TRANSITIONS-1:0] guards,
  output reg  [$clog2(STATES > 1 ? STATES : 2)-1:0] state
);
  // Next-state logic is design-specific; the generated table is attached
  // by the per-design emitter below.
  always @(posedge clk)
    if (rst) state <= {$clog2(STATES > 1 ? STATES : 2){1'b0}};
endmodule
""",
    prim.BramMacro: """
module repro_bram18k #(parameter DEPTH = 512, parameter WIDTH = 36) (
  input  wire clk,
  input  wire [$clog2(DEPTH)-1:0] addr_a,
  input  wire [WIDTH-1:0] din_a,
  input  wire we_a,
  output reg  [WIDTH-1:0] dout_a,
  input  wire [$clog2(DEPTH)-1:0] addr_b,
  input  wire [WIDTH-1:0] din_b,
  input  wire we_b,
  output reg  [WIDTH-1:0] dout_b
);
  reg [WIDTH-1:0] mem [0:DEPTH-1];
  always @(posedge clk) begin
    if (we_a) mem[addr_a] <= din_a;
    dout_a <= mem[addr_a];
  end
  always @(posedge clk) begin
    if (we_b) mem[addr_b] <= din_b;
    dout_b <= mem[addr_b];
  end
endmodule
""",
    prim.RandomLogic: """
module repro_random_logic #(parameter LUT_COUNT = 1) (
  input  wire [LUT_COUNT-1:0] in,
  output wire out
);
  // Placeholder for uncommitted control logic of the given LUT budget.
  assign out = ^in;
endmodule
""",
}

#: Verilog module name for each primitive type.
_PRIMITIVE_NAMES: dict[type, str] = {
    prim.Register: "repro_register",
    prim.Counter: "repro_counter",
    prim.Adder: "repro_adder",
    prim.Mux: "repro_mux",
    prim.Demux: "repro_demux",
    prim.EqComparator: "repro_eq_comparator",
    prim.MagComparator: "repro_mag_comparator",
    prim.Decoder: "repro_decoder",
    prim.PriorityEncoder: "repro_priority_encoder",
    prim.RoundRobinArbiterMacro: "repro_rr_arbiter",
    prim.CamRow: "repro_cam_row",
    prim.FsmLogic: "repro_fsm",
    prim.BramMacro: "repro_bram18k",
    prim.RandomLogic: "repro_random_logic",
}

#: Dataclass field -> Verilog parameter name.
_PARAM_NAMES: dict[str, str] = {
    "width": "WIDTH",
    "inputs": "INPUTS",
    "outputs": "OUTPUTS",
    "clients": "CLIENTS",
    "key_bits": "KEY_BITS",
    "states": "STATES",
    "transitions": "TRANSITIONS",
    "depth": "DEPTH",
    "lut_count": "LUT_COUNT",
}

#: Per primitive type: ``(field, parameter)`` for each of its dataclass
#: fields that is a Verilog parameter, in ``_PARAM_NAMES`` order.
_PRIMITIVE_PARAMS: dict[type, tuple[tuple[str, str], ...]] = {
    ptype: tuple(
        (fname, pname)
        for fname, pname in _PARAM_NAMES.items()
        if fname in {f.name for f in dataclasses.fields(ptype)}
    )
    for ptype in _PRIMITIVE_NAMES
}

#: Port declaration keywords per direction.
_DIRECTIONS = {
    PortDirection.INPUT: "input  wire",
    PortDirection.OUTPUT: "output wire",
    PortDirection.INOUT: "inout  wire",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")


def _check_module_name(name: str) -> None:
    """Refuse a module name that cannot be emitted as written."""
    if not _IDENTIFIER.match(name):
        raise ValueError(f"module name {name!r} is not a legal Verilog identifier")
    if name in _PRIMITIVE_NAMES.values():
        raise ValueError(
            f"module name {name!r} is taken by the primitive library"
        )


@dataclass
class VerilogEmitter:
    """Emits a module hierarchy as one Verilog translation unit."""

    top: Module
    _emitted_primitives: set[type] = field(default_factory=set)
    #: every module in the hierarchy by name, each after the modules it
    #: instantiates (the order they are emitted in)
    _modules: dict[str, Module] = field(default_factory=dict)
    _chunks: list[str] = field(default_factory=list)

    def emit(self) -> str:
        self._chunks = [
            "// Generated by repro.rtl.verilog — reproduction of",
            "// 'Memory centric thread synchronization on platform FPGAs'",
            "// (Kulkarni & Brebner, DATE 2006).",
            "`timescale 1ns / 1ps",
            "",
        ]
        self._collect(self.top)
        for ptype in sorted(self._emitted_primitives, key=lambda t: t.__name__):
            self._chunks.append(_PRIMITIVE_DEFS[ptype].strip())
            self._chunks.append("")
        for module in self._modules.values():
            self._chunks.append(self._render_module(module))
            self._chunks.append("")
        return "\n".join(self._chunks) + "\n"

    # -- helpers --------------------------------------------------------------------

    def _collect(self, module: Module) -> None:
        """Note the primitive types and the modules at and below
        ``module``; each module name must be emittable and name one
        module, since modules are emitted once per name."""
        for instance in module.instances:
            component = instance.component
            if isinstance(component, Module):
                self._collect(component)
            else:
                self._emitted_primitives.add(type(component))
        known = self._modules.setdefault(module.name, module)
        if known is module:
            _check_module_name(module.name)
        elif known != module:
            raise ValueError(f"two different modules are named {module.name!r}")

    def _render_module(self, module: Module) -> str:
        lines = [f"module {module.name} ("]
        lines.append(
            ",\n".join(
                [
                    f"  {_DIRECTIONS[port.direction]} {_bus(port.width)}{port.name}"
                    for port in module.ports
                ]
            )
        )
        lines.append(");")

        port_names = {p.name for p in module.ports}
        for name, net in sorted(module.nets.items()):
            if name not in port_names:
                lines.append(f"  wire {_bus(net.width)}{name};")

        for path_name, levels in sorted(module.critical_paths.items()):
            lines.append(
                f"  // timing: path '{path_name}' = {levels} LUT levels"
            )

        for instance in module.instances:
            lines.append(self._render_instance(instance))

        lines.append("endmodule")
        return "\n".join(lines)

    def _render_instance(self, instance: Instance) -> str:
        component = instance.component
        if isinstance(component, Module):
            vname = component.name
            param_str = ""
        else:
            vname = _PRIMITIVE_NAMES[type(component)]
            params = ", ".join(
                [
                    f".{pname}({getattr(component, fname)})"
                    for fname, pname in _PRIMITIVE_PARAMS[type(component)]
                ]
            )
            param_str = f" #({params})" if params else ""
        conns = ", ".join(
            [f".{port}({net})" for port, net in sorted(instance.connections.items())]
        )
        return f"  {vname}{param_str} {instance.name} ({conns});"


def emit_verilog(top: Module) -> str:
    """Emit ``top`` (with its primitive library and children) as Verilog.

    Modules are emitted once per name, so a ``ValueError`` refuses a
    hierarchy in which two different modules share a name, a module
    takes a primitive's name (``repro_*``) or a name is not a legal
    Verilog identifier: a design named after one of its thread modules,
    for example."""
    return VerilogEmitter(top).emit()
