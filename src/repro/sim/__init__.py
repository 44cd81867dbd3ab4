"""Cycle-accurate simulation of synthesized designs.

* :mod:`~repro.sim.kernel` — the two-phase clocked simulation kernel;
* :mod:`~repro.sim.wheel` — the ``wheel`` fast kernel (cycle-equivalent,
  idle stretches skipped to the earliest wake the components report
  through their ``next_wake`` contract);
* :mod:`~repro.sim.executor` — FSM thread interpreters and interface
  models;
* :mod:`~repro.sim.expr` — hic's exact 32-bit expression semantics,
  compiled to Python fragments every kernel runs;
* :mod:`~repro.sim.vcd` — VCD trace writing for waveform inspection;
* :mod:`~repro.sim.probes` — latency and determinism measurement.
"""

from .executor import (
    ExecutorStats,
    RxInterface,
    ThreadExecutor,
    TxInterface,
)
from .expr import MASK32, default_intrinsic, to_signed, to_unsigned
from .kernel import SimulationKernel, SimulationResult
from .wheel import FastKernel
from .probes import (
    ConsumerLatencyProbe,
    ConsumerLatencySummary,
    determinism_report,
)
from .vcd import VcdWriter

__all__ = [
    "MASK32",
    "ExecutorStats",
    "RxInterface",
    "ThreadExecutor",
    "TxInterface",
    "default_intrinsic",
    "to_signed",
    "to_unsigned",
    "SimulationKernel",
    "SimulationResult",
    "FastKernel",
    "ConsumerLatencyProbe",
    "ConsumerLatencySummary",
    "determinism_report",
    "VcdWriter",
]
