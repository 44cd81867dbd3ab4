"""The ``wheel`` kernel: cycle-exact simulation that skips idle cycles.

The reference :class:`~repro.sim.kernel.SimulationKernel` ticks every
component every cycle.  The paper's controllers are *reactive*: an
arbitrated wrapper (§3.1) only changes state when a request is granted,
the event-driven organization (§3.2) is modulo-scheduled, and blocked
FSM states simply hold their request lines.  Most simulated cycles are
therefore provably idle — and :class:`FastKernel` skips them in O(1)
while staying **cycle-equivalent** to the reference kernel (same
consumer values, same statistics, same event cycle numbers; enforced by
``tests/differential/``).

Every cycle the wheel executes is the reference kernel's cycle
(:meth:`SimulationKernel.step` itself); the wheel only decides which
cycles it may skip.  After an executed cycle in which no executor
advanced, it asks each executor whether its state *holds*
(:meth:`~repro.sim.executor.ThreadExecutor.holds`: a blocked memory
wait, a receive wait on empty queues, or a terminal state — each
re-executes as a provable no-op apart from per-cycle statistics).  When
every executor holds, every controller reports quiescence through
``next_wake()``, and every hook bounds its next effect, the kernel jumps
straight to the earliest reported wake (or the run's final cycle),
batch-accounting the skipped cycles (``hold_idle`` /
``note_idle_cycles`` / ``on_idle_cycles``).  Anything unprovable falls
back to cycle-by-cycle execution, which is always correct.

The wake contract (see ``docs/simulation_kernels.md``): a component
that can change observable state at cycle ``t > now`` without any new
input must report a wake ``<= t``; a component with no such ``t``
reports ``None``.  Hooks use ``next_wake(cycle, limit, kernel)``
(resolved off the hook or its bound instance), where ``limit`` is the
earliest wake reported so far; any hook without one disables skipping
entirely.

The run's final cycle is always executed, never skipped, so end-of-run
snapshot state (blocked ages, pending counts, controller cycle
registers) is byte-identical to the reference kernel's.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Optional

from ..core.controller import MemResult, MemoryController
from .executor import ThreadExecutor
from .kernel import SimulationKernel, SimulationResult

_ADVANCES = attrgetter("advances")


class FastKernel(SimulationKernel):
    """The ``wheel`` kernel: cycle-equivalent, idle stretches skipped.

    :meth:`step` is the reference cycle, counted, followed by a re-read
    of the executors' advance total, so external single-stepping stays
    exact and "no executor advanced in the last executed cycle" is known
    after any step.  The skipping happens inside :meth:`run` between
    steps, only after a step in which no executor advanced, and only
    when ``until`` is ``None`` (an ``until`` predicate may inspect
    per-cycle state).
    """

    def __init__(
        self,
        executors: dict[str, ThreadExecutor],
        controllers: dict[str, MemoryController],
    ):
        super().__init__(executors, controllers)
        #: introspection counters (benchmarks and tests read these)
        self.cycles_executed = 0
        self.cycles_skipped = 0
        #: every executor's statistics, in tick order
        self._stats = [executor.stats for executor in self._executor_order]
        #: the sum of their ``advances`` as last read, and whether it did
        #: not move since the read before
        self._advances = -1
        self._held = False
        self._read_advances()
        self._wakers: Optional[list] = []
        self._waker_cache_key: Optional[tuple[int, int]] = (0, 0)

    # -- one real cycle -------------------------------------------------------------

    def step(self) -> dict[str, dict[str, MemResult]]:
        results = super().step()
        self.cycles_executed += 1
        self._read_advances()
        return results

    def _read_advances(self) -> None:
        """Re-read the advance total.

        Called at construction, after every executed cycle and after each
        compiled span, so that after a step ``_held`` says exactly
        whether no executor advanced in that cycle: each counter only
        grows, so an unchanged total means none of them moved."""
        advances = sum(map(_ADVANCES, self._stats))
        self._held = advances == self._advances
        self._advances = advances

    # -- the skip decision ----------------------------------------------------------

    def _resolve_wakers(self) -> Optional[list]:
        """Wake functions for every hook, or ``None`` if any hook lacks
        one (which disables skipping — a hook of unknown behaviour must
        run every cycle, e.g. a VCD sampler)."""
        key = (len(self._pre_hooks), len(self._post_hooks))
        if key != self._waker_cache_key:
            wakers: Optional[list] = []
            for hook in self._pre_hooks + self._post_hooks:
                fn = getattr(hook, "next_wake", None)
                if fn is None:
                    owner = getattr(hook, "__self__", None)
                    if owner is not None:
                        fn = getattr(owner, "next_wake", None)
                if fn is None:
                    wakers = None
                    break
                wakers.append(fn)
            self._wakers = wakers
            self._waker_cache_key = key
        return self._wakers

    def _skip_target(self, last_cycle: int) -> Optional[int]:
        """The next cycle that must actually execute, or ``None`` if
        skipping is not currently provable.  Asked only after a step in
        which no executor advanced.  ``self.cycle`` is the next
        unexecuted cycle; wake queries are posed at ``self.cycle - 1``,
        the cycle all component state currently reflects.  The run's
        final cycle is never skipped."""
        for executor in self._executor_order:
            if not executor.holds():
                return None
        if self.observer is not None and not hasattr(
            self.observer, "on_idle_cycles"
        ):
            return None
        wakers = self._resolve_wakers()
        if wakers is None:
            return None

        now = self.cycle - 1
        target = last_cycle
        for __, controller in self._controller_order:
            wake_fn = getattr(controller, "next_wake", None)
            if wake_fn is None:
                return None
            wake = wake_fn(now)
            if wake is not None:
                if wake <= now:  # pragma: no cover - contract violation
                    return None
                target = min(target, wake)
        for waker in wakers:
            wake = waker(now, target, self)
            if wake is not None:
                if wake <= now:  # pragma: no cover - contract violation
                    return None
                target = min(target, wake)
        return target if target > self.cycle else None

    def _skip_to(self, target: int) -> None:
        """Batch-account the provably idle cycles ``self.cycle ..
        target - 1`` and jump to ``target``."""
        count = target - self.cycle
        for executor in self._executor_order:
            executor.hold_idle(count)
        for __, controller in self._controller_order:
            # The skipped arbitrate() calls were no-ops except for cycle
            # tracking, which stamps later submissions' issue cycles.
            controller.note_idle_cycles(target - 1)
        if self.observer is not None:
            self.observer.on_idle_cycles(self.cycle, count, self)
        self.cycles_skipped += count
        self.cycle = target

    # -- driving ---------------------------------------------------------------------

    def run(
        self, cycles: int, until=None, max_wall_seconds=None
    ) -> SimulationResult:
        deadline = self._deadline(max_wall_seconds)
        end = self.cycle + cycles
        last_cycle = end - 1
        while self.cycle < end:
            self.step()
            if until is not None and until(self):
                break
            if deadline is not None and time.monotonic() >= deadline:
                self._raise_wall_timeout(max_wall_seconds)
            # Per-cycle predicates may inspect any state: never skip.
            if self._held and until is None and self.cycle < end:
                target = self._skip_target(last_cycle)
                if target is not None:
                    self._skip_to(target)
        return self._result()
