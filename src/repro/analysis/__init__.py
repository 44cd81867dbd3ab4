"""Static analyses over checked hic programs.

This package implements the front-end analyses the compile flow reads:

* :mod:`~repro.analysis.usedef` — per-statement def/use sets over a
  thread's linearized statement order, read by the analyses below (the
  pragma inference itself is :mod:`repro.hic.autopragma`);
* :mod:`~repro.analysis.memgraph` — the memory access graph that drives
  memory allocation;
* :mod:`~repro.analysis.channels` — the channel classifier that proves a
  dependency a FIFO stream (``channel_synthesis="fifo"``);
* :mod:`~repro.analysis.deadlock` — static deadlock detection over the
  producer/consumer happens-before relation.
"""

from .deadlock import (
    DeadlockReport,
    Event,
    assert_deadlock_free,
    check_deadlock,
)
from .memgraph import MemoryAccessGraph, build_memory_graphs
from .usedef import StatementInfo, linearize

__all__ = [
    "DeadlockReport",
    "Event",
    "assert_deadlock_free",
    "check_deadlock",
    "MemoryAccessGraph",
    "build_memory_graphs",
    "StatementInfo",
    "linearize",
]
