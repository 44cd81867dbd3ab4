"""Runtime watchdogs over the memory controllers.

The static deadlock check (:mod:`repro.analysis.deadlock`) proves the
*declared* dependencies consistent; it cannot see runtime violations —
a dead producer, a corrupted dependency list, a dropped request.  The
watchdog closes that gap with two detectors driven from the kernel's
post-cycle hook:

* **blocked-read timeout** — a request has sat ungranted at one
  controller for ``read_timeout`` consecutive cycles (read off the
  controller's :class:`~repro.core.controller.BlockedRequest` tap);
* **system deadlock** — no executor has taken a state transition for
  ``deadlock_window`` cycles while at least one request is blocked (the
  kernel's progress counters stopped with work outstanding).

What happens next is the *recovery policy*:

* ``abort`` — raise a structured :class:`~repro.core.errors.ControllerError`
  (simulation stops with an attributable failure, never a silent hang);
* ``warn-continue`` — record the event and keep running;
* ``break-dependency`` — ask the controller to
  :meth:`~repro.core.controller.MemoryController.force_unblock` the stuck
  request (force-arm the deplist entry / skip the dead slot), recording
  the degradation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from ..core.controller import BlockedRequest, MemoryController
from ..core.errors import RuntimeDeadlockError, WatchdogTimeout

#: Default thresholds, in cycles.  Both sit well above the longest legal
#: wait of the reproduced designs (a full consumer chain is < 16 cycles)
#: and well below any practical simulation horizon.
DEFAULT_READ_TIMEOUT = 64
DEFAULT_DEADLOCK_WINDOW = 128

_advances = attrgetter("advances")


class RecoveryPolicy(enum.Enum):
    """What the watchdog does when a detector fires."""

    ABORT = "abort"
    WARN_CONTINUE = "warn-continue"
    BREAK_DEPENDENCY = "break-dependency"


@dataclass(frozen=True)
class WatchdogEvent:
    """One detector firing, with the action taken."""

    cycle: int
    kind: str  # "blocked-read-timeout" | "system-deadlock"
    action: str  # "aborted" | "warned" | "broke-dependency"
    bram: Optional[str] = None
    client: Optional[str] = None
    dep_id: Optional[str] = None
    blocked_cycles: int = 0

    def describe(self) -> str:
        where = "/".join(p for p in (self.bram, self.client) if p)
        dep = f" dep={self.dep_id}" if self.dep_id else ""
        return (
            f"cycle {self.cycle}: {self.kind} at {where or 'system'}{dep} "
            f"(blocked {self.blocked_cycles} cycles) -> {self.action}"
        )


class Watchdog:
    """Per-controller and system-level runtime supervision."""

    def __init__(
        self,
        *,
        read_timeout: int = DEFAULT_READ_TIMEOUT,
        deadlock_window: int = DEFAULT_DEADLOCK_WINDOW,
        policy: RecoveryPolicy | str = RecoveryPolicy.ABORT,
    ):
        if read_timeout < 1 or deadlock_window < 1:
            raise ValueError("watchdog thresholds must be >= 1 cycle")
        self.read_timeout = read_timeout
        self.deadlock_window = deadlock_window
        self.policy = RecoveryPolicy(policy)
        self.events: list[WatchdogEvent] = []
        self.degradations: list[str] = []
        #: telemetry seam (:class:`repro.obs.Telemetry`); wired by
        #: whichever of watchdog/telemetry attaches second
        self.observer = None
        self._controllers: dict[str, MemoryController] = {}
        self._reported: set[tuple] = set()
        #: controller name -> (its ``blocked_by_client`` view, the
        #: earliest ``issue_cycle + read_timeout`` of its requests not
        #: yet timed out, or None) as of the last completed scan
        self._scans: dict[str, tuple] = {}
        #: every executor's stats object (stable per executor); their
        #: summed ``advances`` is the system-level progress counter
        self._stats: list = []
        self._last_advances: Optional[int] = None
        #: cycle of the last observed progress (advance counter change);
        #: the stall age is derived as ``cycle - _progress_cycle`` so the
        #: detector is insensitive to *when* the hook runs — the fast
        #: kernel may skip idle cycles and still fire at the same cycle
        #: number as the reference kernel
        self._progress_cycle = 0
        self._deadlock_reported = False

    # -- wiring ---------------------------------------------------------------------

    def attach(self, target) -> "Watchdog":
        """Wire into a :class:`repro.flow.Simulation` (or a bare kernel)."""
        kernel = getattr(target, "kernel", target)
        # Sorted once here: both detectors scan in controller-name order.
        self._controllers = dict(sorted(kernel.controllers.items()))
        self._stats = [
            executor.stats for executor in kernel.executors.values()
        ]
        kernel.add_post_cycle_hook(self.hook)
        kernel.context["watchdog"] = self
        telemetry = kernel.context.get("telemetry")
        if telemetry is not None:
            self.observer = telemetry
        return self

    @property
    def tripped(self) -> bool:
        return bool(self.events)

    # -- detection --------------------------------------------------------------------

    def hook(self, cycle: int, kernel) -> None:
        self._check_blocked_reads(cycle)
        self._check_system_deadlock(cycle)

    def next_wake(self, cycle: int, limit: int, kernel):
        """Fast-kernel wake contract: the earliest future cycle either
        detector could fire, assuming nothing else changes meanwhile.

        * an unreported blocked request trips the read timeout exactly
          at ``issue_cycle + read_timeout``;
        * the deadlock detector trips at ``progress cycle +
          deadlock_window`` while anything is blocked and unreported.

        Any activity before that (a grant, an advance, new traffic)
        executes a real cycle anyway, after which the kernel re-asks.
        ``None`` means the watchdog cannot fire until something else
        wakes the system.
        """
        wakes = []
        blocked_anywhere = False
        for name, controller in self._controllers.items():
            for key, issue_cycle, __ in controller.blocked_ages():
                blocked_anywhere = True
                if (name, key, issue_cycle) in self._reported:
                    continue
                wakes.append(max(cycle + 1, issue_cycle + self.read_timeout))
        if blocked_anywhere and not self._deadlock_reported:
            wakes.append(
                max(cycle + 1, self._progress_cycle + self.deadlock_window)
            )
        return min(wakes) if wakes else None

    def _check_blocked_reads(self, cycle: int) -> None:
        """Report every unreported request blocked ``read_timeout``
        cycles or more, per controller in name order and within one in
        ``blocked`` order.

        A controller is rescanned only when its ``blocked_by_client``
        view object was replaced (its blocked key set changed, and a
        new key may carry an old issue cycle) or when the earliest
        timeout among its requests not yet timed out falls due.
        Otherwise its blocked requests are the keys of the last scan
        with the same issue cycles: those past their timeout then were
        reported then, and none of the rest has reached it, so a scan
        would report nothing.  A rescan reads the unsorted ages and
        sorts ``blocked`` only when something is to be reported."""
        timeout = self.read_timeout
        reported = self._reported
        for name, controller in self._controllers.items():
            view = controller.blocked_by_client
            scan = self._scans.get(name)
            if scan is not None and scan[0] is view and (
                scan[1] is None or scan[1] > cycle
            ):
                continue
            due = None
            fires = False
            for key, issue_cycle, blocked_cycles in controller.blocked_ages():
                if blocked_cycles < timeout:
                    if due is None or issue_cycle + timeout < due:
                        due = issue_cycle + timeout
                elif (name, key, issue_cycle) not in reported:
                    fires = True
            if fires:
                for blocked in controller.blocked:
                    if blocked.blocked_cycles < timeout:
                        continue
                    token = (name, blocked.request.key, blocked.issue_cycle)
                    if token in reported:
                        continue
                    reported.add(token)
                    self._handle_blocked(cycle, name, controller, blocked)
            self._scans[name] = (view, due)

    def _handle_blocked(
        self,
        cycle: int,
        name: str,
        controller: MemoryController,
        blocked: BlockedRequest,
    ) -> None:
        request = blocked.request
        action = {
            RecoveryPolicy.ABORT: "aborted",
            RecoveryPolicy.WARN_CONTINUE: "warned",
            RecoveryPolicy.BREAK_DEPENDENCY: "broke-dependency",
        }[self.policy]
        if self.policy is RecoveryPolicy.BREAK_DEPENDENCY:
            if controller.force_unblock(request, cycle):
                degradation = (
                    f"cycle {cycle}: forced {name} to unblock "
                    f"{request.client} (port {request.port}, "
                    f"address {request.address})"
                )
                self.degradations.append(degradation)
                if self.observer is not None:
                    self.observer.on_recovery(cycle, degradation)
            else:
                action = "warned"
        event = WatchdogEvent(
            cycle=cycle,
            kind="blocked-read-timeout",
            action=action,
            bram=name,
            client=request.client,
            dep_id=request.dep_id,
            blocked_cycles=blocked.blocked_cycles,
        )
        self.events.append(event)
        if self.observer is not None:
            self.observer.on_watchdog_event(event)
        if self.policy is RecoveryPolicy.ABORT:
            raise WatchdogTimeout(
                f"request blocked {blocked.blocked_cycles} cycles "
                f"(threshold {self.read_timeout})",
                bram=name,
                client=request.client,
                cycle=cycle,
                dep_id=request.dep_id,
                blocked_cycles=blocked.blocked_cycles,
            )

    def _check_system_deadlock(self, cycle: int) -> None:
        advances = sum(map(_advances, self._stats))
        if advances != self._last_advances:
            self._last_advances = advances
            self._progress_cycle = cycle
            self._deadlock_reported = False
            return
        stalled_cycles = cycle - self._progress_cycle
        if stalled_cycles < self.deadlock_window or self._deadlock_reported:
            return
        blocked_anywhere = [
            (name, blocked)
            for name, controller in self._controllers.items()
            for blocked in controller.blocked
        ]
        if not blocked_anywhere:
            return
        self._deadlock_reported = True
        clients = sorted({b.request.client for __, b in blocked_anywhere})
        action = {
            RecoveryPolicy.ABORT: "aborted",
            RecoveryPolicy.WARN_CONTINUE: "warned",
            RecoveryPolicy.BREAK_DEPENDENCY: "broke-dependency",
        }[self.policy]
        if self.policy is RecoveryPolicy.BREAK_DEPENDENCY:
            recovered = False
            for name, blocked in blocked_anywhere:
                if self._controllers[name].force_unblock(blocked.request, cycle):
                    recovered = True
                    degradation = (
                        f"cycle {cycle}: deadlock break forced {name} to "
                        f"unblock {blocked.request.client}"
                    )
                    self.degradations.append(degradation)
                    if self.observer is not None:
                        self.observer.on_recovery(cycle, degradation)
            if not recovered:
                action = "warned"
            # Give the recovery a full window to restore progress before
            # the detector may fire again.
            self._progress_cycle = cycle
            self._deadlock_reported = False
            stalled_cycles = self.deadlock_window
        event = WatchdogEvent(
            cycle=cycle,
            kind="system-deadlock",
            action=action,
            client=",".join(clients),
            blocked_cycles=stalled_cycles,
        )
        self.events.append(event)
        if self.observer is not None:
            self.observer.on_watchdog_event(event)
        if self.policy is RecoveryPolicy.ABORT:
            raise RuntimeDeadlockError(
                f"no executor progress for {self.deadlock_window} cycles "
                f"with blocked clients: {', '.join(clients)}",
                cycle=cycle,
                stalled_cycles=self.deadlock_window,
            )

    # -- reporting --------------------------------------------------------------------

    def report(self) -> str:
        if not self.events:
            return "watchdog: no events"
        lines = [event.describe() for event in self.events]
        lines.extend(f"degradation: {d}" for d in self.degradations)
        return "\n".join(lines)
