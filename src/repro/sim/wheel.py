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

Two mechanisms, both conservative (anything unprovable falls back to
cycle-by-cycle execution, which is always correct):

* **parking** — an executor whose FSM state is provably idempotent
  while held (see :class:`~repro.sim.executor.ParkClass`) stops
  re-interpreting its micro-ops; a parked cycle is a statistics tick
  plus re-assertion of the memory requests the state last submitted;
* **skipping** — when *every* executor is parked, every controller
  reports quiescence through ``next_wake()``, and every hook bounds its
  next effect, the kernel jumps straight to the earliest reported wake
  (or the run's final cycle), batch-accounting the skipped cycles
  (``park_idle`` / ``on_idle_cycles``).

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
from dataclasses import dataclass
from typing import Optional

from ..core.controller import MemResult, MemoryController
from .executor import ParkClass, ThreadExecutor
from .kernel import SimulationKernel, SimulationResult


@dataclass
class _Park:
    """Runtime record of one parked executor."""

    park: ParkClass
    #: frozen ``(bram, MemRequest)`` pairs a "mem" park re-asserts
    requests: tuple = ()
    #: rx interfaces a "recv" park watches for arrivals
    rx: tuple = ()


class FastKernel(SimulationKernel):
    """The ``wheel`` kernel: cycle-equivalent, idle stretches skipped.

    :meth:`step` still executes exactly one real cycle (external
    single-stepping stays exact); the skipping happens inside
    :meth:`run` between steps, and only when ``until`` is ``None``
    (an ``until`` predicate may inspect per-cycle state).
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
        self._parked: dict[str, _Park] = {}
        self._named_order = [
            (name, executors[name]) for name in sorted(executors)
        ]
        self._wakers: Optional[list] = []
        self._waker_cache_key: Optional[tuple[int, int]] = (0, 0)

    # -- one real cycle -------------------------------------------------------------

    def step(self) -> dict[str, dict[str, MemResult]]:
        cycle = self.cycle
        for hook in self._pre_hooks:
            hook(cycle, self)

        parked = self._parked
        if parked:
            # An arrival un-parks a receive wait before phase 1 reads it.
            for name in [
                name
                for name, record in parked.items()
                if record.park.kind == "recv"
                and any(rx.backlog > 0 for rx in record.rx)
            ]:
                del parked[name]

        for name, executor in self._named_order:
            record = parked.get(name)
            if record is not None:
                executor.parked_phase1(cycle, record.park, record.requests)
            else:
                executor.phase1(cycle)

        results: dict[str, dict[str, MemResult]] = {}
        for bram_name, controller in self._controller_order:
            results[bram_name] = controller.arbitrate(cycle)

        for name, executor in self._named_order:
            record = parked.get(name)
            if record is not None and record.park.kind == "terminal":
                continue  # provably no transition; stall accounted above
            before = executor.stats.advances
            executor.phase2(results)
            if executor.stats.advances != before:
                if record is not None:
                    del parked[name]
            elif record is None:
                self._maybe_park(name, executor)

        for hook in self._post_hooks:
            hook(cycle, self)
        if self.observer is not None:
            self.observer.on_cycle(cycle, self)
        self.cycle = cycle + 1
        self.cycles_executed += 1
        return results

    def _maybe_park(self, name: str, executor: ThreadExecutor) -> None:
        """Classify an executor that just held (no advance) for parking."""
        park = executor.park_class()
        kind = park.kind
        if kind is None:
            return
        if kind == "terminal":
            if executor._blocked:
                return
            self._parked[name] = _Park(park=park)
        elif not executor._blocked:
            return
        elif kind == "mem":
            self._parked[name] = _Park(
                park=park, requests=executor.park_requests(park)
            )
        else:  # recv
            rx = tuple(
                executor._rx[interface]
                for interface in park.rx_interfaces
                if interface in executor._rx
            )
            if any(queue.backlog > 0 for queue in rx):
                # A multi-receive state drains its non-empty queues
                # every held cycle; only an all-empty wait can park.
                return
            self._parked[name] = _Park(park=park, rx=rx)

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
        skipping is not currently provable.  ``self.cycle`` is the next
        unexecuted cycle; wake queries are posed at ``self.cycle - 1``,
        the cycle all component state currently reflects.  The run's
        final cycle is never skipped."""
        if len(self._parked) < len(self.executors):
            return None
        for record in self._parked.values():
            if record.park.kind == "recv" and any(
                rx.backlog > 0 for rx in record.rx
            ):
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
        for name in self._parked:
            self.executors[name].park_idle(count)
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
            if until is None and self.cycle < end:
                target = self._skip_target(last_cycle)
                if target is not None:
                    self._skip_to(target)
        return self._result()

    def reset(self) -> None:
        super().reset()
        self._parked.clear()
        self.cycles_executed = 0
        self.cycles_skipped = 0
