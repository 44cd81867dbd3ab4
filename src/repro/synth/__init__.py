"""Behavioral synthesis: hic threads to cycle-accurate FSMs.

* :mod:`~repro.synth.fsm` — FSMD construction, one state per statement,
  with per-state memory-access micro-ops: the synchronization points the
  memory controllers guard;
* :mod:`~repro.synth.optimize` — the optional FSM passes (dead states,
  pass-through states, compute-state packing under the per-cycle
  resource budget);
* :mod:`~repro.synth.schedule` — the operations' resource classes and
  that per-cycle budget, read by packing and binding;
* :mod:`~repro.synth.binding` — datapath resource binding, feeding the
  FPGA area model.
"""

from .binding import (
    DatapathSummary,
    FunctionalUnit,
    RegisterBinding,
    bind_program,
    bind_thread,
)
from .fsm import (
    ComputeOp,
    FsmBuilder,
    MemReadOp,
    MemWriteOp,
    MicroOp,
    ReceiveOp,
    State,
    ThreadFsm,
    Transition,
    TransmitOp,
    synthesize_program,
    synthesize_thread,
)
from .optimize import (
    collapse_passthrough_states,
    eliminate_dead_states,
    optimize_fsm,
    pack_compute_states,
)
from .schedule import DEFAULT_RESOURCES, op_class

__all__ = [
    "collapse_passthrough_states",
    "eliminate_dead_states",
    "optimize_fsm",
    "pack_compute_states",
    "DatapathSummary",
    "FunctionalUnit",
    "RegisterBinding",
    "bind_program",
    "bind_thread",
    "ComputeOp",
    "FsmBuilder",
    "MemReadOp",
    "MemWriteOp",
    "MicroOp",
    "ReceiveOp",
    "State",
    "ThreadFsm",
    "Transition",
    "TransmitOp",
    "synthesize_program",
    "synthesize_thread",
    "DEFAULT_RESOURCES",
    "op_class",
]
