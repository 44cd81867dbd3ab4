"""RTL generation: structural netlists, primitive library, Verilog emission.

* :mod:`~repro.rtl.netlist` — the module/net/instance IR shared by the
  emitter and the FPGA estimation models;
* :mod:`~repro.rtl.primitives` — parametric macro primitives with
  Virtex-II Pro LUT/FF/level cost models;
* :mod:`~repro.rtl.generate` — the generators for the two memory
  organizations, the lock baseline, thread FSM modules, and full designs;
* :mod:`~repro.rtl.verilog` — the Verilog-2001 emitter.
"""

from .generate import (
    ADDRESS_BITS,
    BASELINE_MAX_CONSUMERS,
    COUNTER_BITS,
    DEFAULT_DEPLIST_ENTRIES,
    WrapperParams,
    generate_arbitrated_wrapper,
    generate_design,
    generate_event_driven_wrapper,
    generate_lock_baseline,
    generate_thread_module,
)
from .netlist import Instance, Module, Net, Port, PortDirection
from .primitives import (
    Adder,
    BramMacro,
    CamRow,
    Counter,
    Decoder,
    Demux,
    EqComparator,
    FsmLogic,
    MacroPrimitive,
    MagComparator,
    Mux,
    PriorityEncoder,
    RandomLogic,
    Register,
    RoundRobinArbiterMacro,
    clog2,
)
from .fsm_verilog import emit_thread_verilog
from .verilog import VerilogEmitter, emit_verilog

__all__ = [
    "ADDRESS_BITS",
    "BASELINE_MAX_CONSUMERS",
    "COUNTER_BITS",
    "DEFAULT_DEPLIST_ENTRIES",
    "WrapperParams",
    "generate_arbitrated_wrapper",
    "generate_design",
    "generate_event_driven_wrapper",
    "generate_lock_baseline",
    "generate_thread_module",
    "Instance",
    "Module",
    "Net",
    "Port",
    "PortDirection",
    "Adder",
    "BramMacro",
    "CamRow",
    "Counter",
    "Decoder",
    "Demux",
    "EqComparator",
    "FsmLogic",
    "MacroPrimitive",
    "MagComparator",
    "Mux",
    "PriorityEncoder",
    "RandomLogic",
    "Register",
    "RoundRobinArbiterMacro",
    "clog2",
    "VerilogEmitter",
    "emit_verilog",
    "emit_thread_verilog",
]
