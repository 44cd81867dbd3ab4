"""The paper's primary contribution: memory-centric synchronization
controllers for on-chip BRAMs.

* :mod:`~repro.core.arbitrated` — the arbitrated memory organization
  (§3.1): 4-port wrapper, CAM-matched dependency list, priority D > C > B,
  round-robin arbitration, blocking guarded accesses;
* :mod:`~repro.core.event_driven` — the event-driven statically scheduled
  organization (§3.2): mux/demux network + modulo-scheduling selection
  logic chaining events through consumers;
* :mod:`~repro.core.lock_baseline` — the hand-built lock/flag protocol the
  paper argues against, for measurable comparison;
* :mod:`~repro.core.advisor` — the §4 design-time organization selector
  and :func:`~repro.core.advisor.build_controller`, the one place an
  organization becomes a controller;
* supporting pieces: round-robin/priority arbiters and the modulo
  scheduler.

Each organization states its grant rule once, as
:meth:`~repro.core.controller.MemoryController.hold`; the profiler's
``classify_wait`` and the fast kernels' ``next_wake`` derive from it.
The dependency list's CAM match is
:meth:`repro.memory.deplist.DependencyList.matches`; its area is the
RTL generator's ``CamRow``.
"""

from .advisor import (
    DesignConstraints,
    Organization,
    Recommendation,
    build_controller,
    recommend,
)
from .arbiter import PriorityArbiter, RoundRobinArbiter
from .arbitrated import ArbitratedController
from .controller import (
    BlockedRequest,
    ControllerStats,
    LatencySample,
    MemRequest,
    MemResult,
    MemoryController,
)
from .errors import (
    AllocationError,
    ControllerError,
    GuardViolationError,
    ParameterError,
    ProtocolError,
    RuntimeDeadlockError,
    SimulationTimeout,
    UnknownPortError,
    WatchdogTimeout,
)
from .event_driven import EventDrivenController
from .lock_baseline import LockBaselineController, LockStats
from .modulo import ModuloSchedule, SelectionLogic, Slot, SlotKind

__all__ = [
    "DesignConstraints",
    "Organization",
    "Recommendation",
    "build_controller",
    "recommend",
    "PriorityArbiter",
    "RoundRobinArbiter",
    "ArbitratedController",
    "AllocationError",
    "BlockedRequest",
    "ControllerError",
    "ControllerStats",
    "GuardViolationError",
    "ParameterError",
    "ProtocolError",
    "RuntimeDeadlockError",
    "SimulationTimeout",
    "UnknownPortError",
    "WatchdogTimeout",
    "LatencySample",
    "MemRequest",
    "MemResult",
    "MemoryController",
    "EventDrivenController",
    "LockBaselineController",
    "LockStats",
    "ModuloSchedule",
    "SelectionLogic",
    "Slot",
    "SlotKind",
]
