"""Two-phase cycle simulation kernel.

Each cycle:

1. every thread executor runs phase 1 (register work / request submission);
2. every memory controller arbitrates its pending requests;
3. every executor runs phase 2 (absorb grants, advance or hold);
4. registered per-cycle hooks fire (traffic injection, probes, VCD dump).

The kernel is deliberately synchronous and deterministic: given the same
seeded traffic, two runs produce identical traces — which is what lets the
benchmarks measure the *controllers'* (non-)determinism rather than the
simulator's.

**Tick-order contract.** Within each phase, executors tick in sorted
thread-name order and controllers in sorted controller-name order.  This
is a stable, documented contract (``tests/sim/test_tick_order.py``), not
an accident of dict insertion order: every kernel (reference or wheel)
and every rebuild of the same design must tick components identically,
or hook/telemetry event streams would not be comparable across runs.
The simulated *hardware* is insensitive to the order (all phase-1 work
targets disjoint per-thread state and controller arbitration is a pure
function of the submitted request set), but observer callbacks fire in
tick order, so the order is part of the reproducibility surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.controller import MemResult, MemoryController
from ..core.errors import SimulationTimeout
from .executor import ExecutorStats, ThreadExecutor

#: A per-cycle hook: receives the cycle number and the kernel.
CycleHook = Callable[[int, "SimulationKernel"], None]


@dataclass
class SimulationResult:
    """Summary of one simulation run."""

    cycles_run: int
    executor_stats: dict[str, ExecutorStats] = field(default_factory=dict)
    controller_samples: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [f"simulated {self.cycles_run} cycles"]
        for thread, stats in sorted(self.executor_stats.items()):
            lines.append(
                f"  {thread}: {stats.cycles} cycles, "
                f"{stats.stall_cycles} stalled "
                f"({100 * stats.utilization:.0f}% busy), "
                f"{stats.rounds_completed} rounds"
            )
        return "\n".join(lines)


class SimulationKernel:
    """Drives executors and controllers through the two-phase protocol."""

    def __init__(
        self,
        executors: dict[str, ThreadExecutor],
        controllers: dict[str, MemoryController],
    ):
        self.executors = executors
        self.controllers = controllers
        #: stable tick order (sorted by name — see the module docstring)
        self._executor_order = [
            executors[name] for name in sorted(executors)
        ]
        self._controller_order = [
            (name, controllers[name]) for name in sorted(controllers)
        ]
        self.cycle = 0
        self._pre_hooks: list[CycleHook] = []
        self._post_hooks: list[CycleHook] = []
        #: shared scratch space for cooperating hooks (fault injectors,
        #: watchdogs, probes) — keyed by convention, e.g. ``"watchdog"``
        self.context: dict[str, object] = {}
        #: telemetry seam (:class:`repro.obs.Telemetry`): notified once
        #: per cycle *after* every post-cycle hook has run, so it sees
        #: the cycle's final state (including watchdog mutations).  The
        #: disabled path is a single ``is not None`` check.
        self.observer = None

    def add_pre_cycle_hook(self, hook: CycleHook) -> None:
        """Runs before phase 1 (e.g. traffic injection)."""
        self._pre_hooks.append(hook)

    def add_post_cycle_hook(self, hook: CycleHook) -> None:
        """Runs after phase 2 (e.g. probes, VCD sampling)."""
        self._post_hooks.append(hook)

    def step(self) -> dict[str, dict[str, MemResult]]:
        """Advance the whole design by one clock cycle."""
        for hook in self._pre_hooks:
            hook(self.cycle, self)

        for executor in self._executor_order:
            executor.phase1(self.cycle)

        results: dict[str, dict[str, MemResult]] = {}
        for bram_name, controller in self._controller_order:
            results[bram_name] = controller.arbitrate(self.cycle)

        for executor in self._executor_order:
            executor.phase2(results)

        for hook in self._post_hooks:
            hook(self.cycle, self)

        if self.observer is not None:
            self.observer.on_cycle(self.cycle, self)

        self.cycle += 1
        return results

    def run(
        self,
        cycles: int,
        until: Optional[Callable[["SimulationKernel"], bool]] = None,
        max_wall_seconds: Optional[float] = None,
    ) -> SimulationResult:
        """Run for ``cycles`` clock cycles (or until the predicate holds).

        ``max_wall_seconds`` is the livelock safety valve: when the run
        has spent that much host wall-clock time without finishing, a
        structured :class:`~repro.core.errors.SimulationTimeout` is
        raised (after a completed cycle, so kernel state stays
        consistent).  A hung *campaign* run is additionally killable
        from outside by the campaign engine's worker timeout; this
        valve makes the same condition catchable in-process.
        """
        deadline = self._deadline(max_wall_seconds)
        for __ in range(cycles):
            self.step()
            if until is not None and until(self):
                break
            if deadline is not None and time.monotonic() >= deadline:
                self._raise_wall_timeout(max_wall_seconds)
        return self._result()

    def _deadline(self, max_wall_seconds: Optional[float]) -> Optional[float]:
        if max_wall_seconds is None:
            return None
        if max_wall_seconds < 0:
            raise ValueError("max_wall_seconds must be >= 0")
        return time.monotonic() + max_wall_seconds

    def _raise_wall_timeout(self, max_wall_seconds: float) -> None:
        raise SimulationTimeout(
            f"simulation exceeded its {max_wall_seconds}s wall-clock "
            f"budget after {self.cycle} cycles",
            cycle=self.cycle,
            wall_seconds=max_wall_seconds,
        )

    def _result(self) -> SimulationResult:
        return SimulationResult(
            cycles_run=self.cycle,
            executor_stats={
                name: executor.stats
                for name, executor in self.executors.items()
            },
            controller_samples={
                name: len(controller.latency_samples)
                for name, controller in self.controllers.items()
            },
        )
