"""Arms fault models onto a running simulation.

The injector needs no special kernel support beyond what real hardware
faults get: SEUs strike BRAM cells directly (``BlockRam.flip_bit``),
configuration upsets rewrite the dependency list in place
(``DependencyList.corrupt``), and request-line faults ride the
controllers' ``request_taps`` seam — the software analogue of glitching
the physical request wires.

Everything the injector does is logged with its cycle, so a campaign
report can correlate injections with watchdog events and trace diffs.

The controllers hold the injector's request taps, so the injector holds
no controller: its pre-cycle hook reads them off the kernel it is
handed.  A finished simulation is then freed by reference counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.controller import MemRequest
from .models import (
    DeplistCorruption,
    Fault,
    ProducerStall,
    RequestDrop,
    RequestDuplicate,
    SeuBitFlip,
)

#: How many cycles a captured request is replayed before the duplication
#: fault gives up (the stuck request line un-sticks).
DUPLICATE_REPLAY_WINDOW = 8


@dataclass
class _DropState:
    fault: RequestDrop
    remaining: int


@dataclass
class _DuplicateState:
    fault: RequestDuplicate
    captured: Optional[MemRequest] = None
    replays_left: int = DUPLICATE_REPLAY_WINDOW


@dataclass
class _StallState:
    fault: ProducerStall
    announced: bool = False

    def active(self, cycle: int) -> bool:
        if cycle < self.fault.at_cycle:
            return False
        if self.fault.duration is None:
            return True
        return cycle < self.fault.at_cycle + self.fault.duration


@dataclass
class FaultInjector:
    """Schedules a list of fault models against one simulation."""

    faults: list[Fault] = field(default_factory=list)
    #: (cycle, description) of every injection actually performed
    log: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.cycle = 0
        self._replaying = False
        #: last cycle a :class:`RequestDrop` ate a request (see next_wake)
        self._dropped_cycle: Optional[int] = None
        self._one_shots = [
            f for f in self.faults if isinstance(f, (SeuBitFlip, DeplistCorruption))
        ]
        self._stalls = [
            _StallState(f) for f in self.faults if isinstance(f, ProducerStall)
        ]
        self._drops = {
            id(f): _DropState(f, f.count)
            for f in self.faults
            if isinstance(f, RequestDrop)
        }
        self._duplicates = {
            id(f): _DuplicateState(f)
            for f in self.faults
            if isinstance(f, RequestDuplicate)
        }

    # -- wiring ---------------------------------------------------------------------

    def attach(self, target) -> "FaultInjector":
        """Wire into a :class:`repro.flow.Simulation` (or a bare kernel)."""
        kernel = getattr(target, "kernel", target)
        kernel.add_pre_cycle_hook(self._pre_cycle)
        for name, controller in kernel.controllers.items():
            controller.request_taps.append(self._make_tap(name))
        kernel.context["fault-injector"] = self
        return self

    # -- pre-cycle injections ---------------------------------------------------------

    def _pre_cycle(self, cycle: int, kernel) -> None:
        self.cycle = cycle
        controllers = kernel.controllers
        for fault in self._one_shots:
            if fault.at_cycle != cycle:
                continue
            controller = controllers.get(fault.bram)
            if isinstance(fault, SeuBitFlip):
                self._inject_seu(fault, controller)
            else:
                self._inject_corruption(fault, controller)
        for state in self._stalls:
            if state.active(cycle) and not state.announced:
                state.announced = True
                self.log.append((cycle, state.fault.describe()))
        for state in self._duplicates.values():
            if state.captured is not None and state.replays_left > 0:
                controller = controllers.get(state.fault.bram)
                if controller is not None:
                    self._replaying = True
                    try:
                        controller.submit(state.captured)
                    finally:
                        self._replaying = False
                state.replays_left -= 1

    def _inject_seu(self, fault: SeuBitFlip, controller) -> None:
        bram = getattr(controller, "bram", None)
        if bram is None:
            return
        address = fault.address % bram.depth
        bram.flip_bit(address, fault.bit % bram.width)
        self.log.append((fault.at_cycle, fault.describe()))

    def _inject_corruption(self, fault: DeplistCorruption, controller) -> None:
        deplist = getattr(controller, "deplist", None)
        if deplist is None:
            # The event-driven wrapper carries no dependency list at
            # runtime — its static schedule is structurally immune to
            # this upset.  Log the no-op so reports stay honest.
            self.log.append(
                (fault.at_cycle, f"{fault.describe()} (no deplist: no-op)")
            )
            return
        try:
            deplist.corrupt(
                fault.dep_id,
                dependency_number=fault.dependency_number,
                base_address=fault.base_address,
            )
            # Guard state changed behind the controller's back:
            # invalidate cached wait classifications (profiler seam).
            controller.classify_epoch += 1
        except KeyError:
            return
        self.log.append((fault.at_cycle, fault.describe()))

    # -- quiescence (fast-kernel wake contract) -----------------------------------------

    def next_wake(self, cycle: int, limit: int, kernel):
        """Earliest future cycle an armed fault changes behaviour.

        One-shots and stall windows have exact boundaries.  Drop and
        duplicate faults interact with *every* submission while live
        (each re-asserted request burns a drop count or a replay), so
        the injector pins the simulation to cycle-by-cycle execution
        until those faults are exhausted — fault semantics must not
        depend on which cycles the kernel chose to execute.

        A dropped request never reached its controller, which therefore
        cannot report it; its owner re-asserts it next cycle, and once
        the drop count is spent that request passes.  So the cycle after
        any drop is a wake too, even with no drop count left.
        """
        if self._dropped_cycle == cycle:
            return cycle + 1
        wakes = []
        for fault in self._one_shots:
            if fault.at_cycle > cycle:
                wakes.append(fault.at_cycle)
        for state in self._stalls:
            fault = state.fault
            if fault.at_cycle > cycle:
                wakes.append(fault.at_cycle)
            elif state.active(cycle) and not state.announced:
                wakes.append(cycle + 1)
            if fault.duration is not None:
                end = fault.at_cycle + fault.duration
                if end > cycle:
                    wakes.append(end)
        for state in self._drops.values():
            if state.remaining > 0:
                wakes.append(max(cycle + 1, state.fault.at_cycle))
        for state in self._duplicates.values():
            if state.captured is None:
                wakes.append(max(cycle + 1, state.fault.at_cycle))
            elif state.replays_left > 0:
                wakes.append(cycle + 1)
        return min(wakes) if wakes else None

    # -- request taps -----------------------------------------------------------------

    def _make_tap(self, bram_name: str):
        def tap(request: MemRequest) -> Optional[MemRequest]:
            if self._replaying:
                return request
            for state in self._stalls:
                if state.active(self.cycle) and request.client == state.fault.client:
                    return None
            for state in self._drops.values():
                fault = state.fault
                if (
                    fault.bram == bram_name
                    and self.cycle >= fault.at_cycle
                    and state.remaining > 0
                    and (fault.client is None or fault.client == request.client)
                ):
                    state.remaining -= 1
                    self._dropped_cycle = self.cycle
                    self.log.append((self.cycle, fault.describe()))
                    return None
            for state in self._duplicates.values():
                fault = state.fault
                if (
                    fault.bram == bram_name
                    and self.cycle >= fault.at_cycle
                    and state.captured is None
                    and (fault.client is None or fault.client == request.client)
                ):
                    state.captured = request
                    self.log.append((self.cycle, fault.describe()))
            return request

        return tap

    # -- reporting --------------------------------------------------------------------

    def describe(self) -> list[str]:
        """Scheduled faults, in declaration order."""
        return [fault.describe() for fault in self.faults]
