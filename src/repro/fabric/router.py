"""Cross-bank dependency routing: §3.1 guard semantics across banks.

On a single BRAM, the dependency list and the guarded data share a wrapper,
so arming (producer write) and disarming (consumer reads) are local.  On a
sharded fabric the guard *entry* may be homed on a different bank than the
guarded *data* — the issue the paper's per-BRAM construction cannot see.
This router owns exactly those entries and keeps the §3.1 protocol intact
across the crossbar:

* a producer write is **held at fabric ingress** until the previous
  produce-consume cycle has fully completed (no outstanding or in-flight
  reads, no arm notification still travelling), then routed to the data
  bank as a plain access;
* when the write is granted at the data bank, an **arm notification** is
  forwarded to the home bank — it arrives ``notify_latency`` cycles later,
  and only then may consumer reads release;
* consumer reads are held at ingress until armed, reserve one of the
  ``dn`` grants on release (so at most ``dn`` reads ever travel), and
  decrement the entry when the data bank grants them.

Every transition is appended to an event log, so a test can assert the
acceptance property directly: *no read ever releases before the producer
write that armed it was granted* (see :meth:`DependencyRouter.verify_guard_ordering`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RoutedDependency:
    """One cross-bank guard entry owned by the router.

    Static configuration mirrors :class:`repro.memory.deplist.DependencyEntry`;
    ``home_bank`` is the bank holding the entry (notification target),
    ``data_bank`` the bank holding the guarded word.
    """

    dep_id: str
    dependency_number: int
    logical_address: int
    home_bank: int
    data_bank: int
    producer_thread: str
    consumer_threads: tuple[str, ...]

    #: armed reads remaining (decremented when the data bank grants a read)
    outstanding: int = 0
    #: reads released into the crossbar but not yet granted
    reserved: int = 0
    #: an arm notification is still travelling to the home bank
    arm_in_flight: bool = False


@dataclass
class RouterStats:
    """Router activity counters for telemetry."""

    writes_routed: int = 0
    reads_routed: int = 0
    notifications_sent: int = 0
    notifications_applied: int = 0
    #: ingress cycles spent holding gated requests
    gated_cycles: int = 0


@dataclass
class _Notification:
    dep_id: str
    arrival_cycle: int


class DependencyRouter:
    """Runtime guard state for dependencies whose home and data banks differ."""

    def __init__(self, notify_latency: int = 1):
        if notify_latency < 0:
            raise ValueError("notification latency cannot be negative")
        self.notify_latency = notify_latency
        self.entries: dict[str, RoutedDependency] = {}
        self._in_flight: list[_Notification] = []
        self.stats = RouterStats()
        #: chronological (kind, dep_id, cycle) log; kinds are
        #: write-released / write-granted / arm-applied / read-released /
        #: read-granted
        self.events: list[tuple[str, str, int]] = []

    def add(self, entry: RoutedDependency) -> None:
        self.entries[entry.dep_id] = entry

    def manages(self, dep_id: str | None) -> bool:
        return dep_id is not None and dep_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    # -- ingress gating (checked every cycle a request is held) -----------------

    def write_release_allowed(self, dep_id: str) -> bool:
        """May the producer's write enter the crossbar now?  Only once the
        previous cycle is fully drained: counter at zero, no reads still
        travelling, no arm notification in flight."""
        entry = self.entries[dep_id]
        return (
            entry.outstanding == 0
            and entry.reserved == 0
            and not entry.arm_in_flight
        )

    def read_release_allowed(self, dep_id: str) -> bool:
        """May a consumer read enter the crossbar now?  Only against grants
        already armed and not yet spoken for by a travelling read."""
        entry = self.entries[dep_id]
        return entry.outstanding - entry.reserved > 0

    def note_gated(self, cycle: int) -> None:
        self.stats.gated_cycles += 1

    # -- transitions -------------------------------------------------------------

    def on_write_released(self, dep_id: str, cycle: int) -> None:
        self.stats.writes_routed += 1
        self.events.append(("write-released", dep_id, cycle))

    def on_read_released(self, dep_id: str, cycle: int) -> None:
        entry = self.entries[dep_id]
        entry.reserved += 1
        self.stats.reads_routed += 1
        self.events.append(("read-released", dep_id, cycle))

    def on_write_granted(self, dep_id: str, cycle: int) -> None:
        """The data bank performed the write: forward the arm notification
        to the home bank (arrives after the notification latency)."""
        entry = self.entries[dep_id]
        entry.arm_in_flight = True
        self._in_flight.append(
            _Notification(dep_id, cycle + self.notify_latency)
        )
        self.stats.notifications_sent += 1
        self.events.append(("write-granted", dep_id, cycle))

    def on_read_granted(self, dep_id: str, cycle: int) -> None:
        entry = self.entries[dep_id]
        entry.reserved = max(0, entry.reserved - 1)
        entry.outstanding = max(0, entry.outstanding - 1)
        self.events.append(("read-granted", dep_id, cycle))

    def next_notification(self, cycle: int):
        """Earliest future cycle an in-flight arm notification lands
        (fast-kernel wake contract); ``None`` when nothing is travelling."""
        if not self._in_flight:
            return None
        return max(
            cycle + 1, min(n.arrival_cycle for n in self._in_flight)
        )

    def tick(self, cycle: int) -> list[str]:
        """Apply arm notifications that have reached their home bank."""
        arrived = [n for n in self._in_flight if n.arrival_cycle <= cycle]
        if not arrived:
            return []
        self._in_flight = [
            n for n in self._in_flight if n.arrival_cycle > cycle
        ]
        applied = []
        for notification in arrived:
            entry = self.entries[notification.dep_id]
            entry.outstanding = entry.dependency_number
            entry.arm_in_flight = False
            self.stats.notifications_applied += 1
            self.events.append(("arm-applied", notification.dep_id, cycle))
            applied.append(notification.dep_id)
        return applied

    # -- watchdog seam -----------------------------------------------------------

    def force_arm(self, dep_id: str) -> bool:
        """Break-dependency recovery for a read stuck at ingress: arm the
        entry with one grant (the data is whatever the bank holds)."""
        entry = self.entries.get(dep_id)
        if entry is None or entry.outstanding - entry.reserved > 0:
            return False
        entry.outstanding += 1
        return True

    def force_drain(self, dep_id: str) -> bool:
        """Recovery for a write stuck at ingress: drop unconsumed grants."""
        entry = self.entries.get(dep_id)
        if entry is None:
            return False
        had_state = (
            entry.outstanding > 0 or entry.reserved > 0 or entry.arm_in_flight
        )
        entry.outstanding = 0
        entry.reserved = 0
        entry.arm_in_flight = False
        self._in_flight = [
            n for n in self._in_flight if n.dep_id != dep_id
        ]
        return had_state

    # -- the acceptance property ---------------------------------------------------

    def verify_guard_ordering(self) -> list[str]:
        """Check the event log for guard violations.

        Returns a list of violation descriptions (empty = the §3.1
        property held): every read release must be covered by arming that
        itself follows a granted producer write, and at most ``dn`` reads
        may release per arming.
        """
        violations: list[str] = []
        budget: dict[str, int] = {dep: 0 for dep in self.entries}
        writes_granted: dict[str, int] = {dep: 0 for dep in self.entries}
        arms: dict[str, int] = {dep: 0 for dep in self.entries}
        for kind, dep_id, cycle in self.events:
            if kind == "write-granted":
                writes_granted[dep_id] += 1
            elif kind == "arm-applied":
                arms[dep_id] += 1
                if arms[dep_id] > writes_granted[dep_id]:
                    violations.append(
                        f"{dep_id}: armed at cycle {cycle} without a "
                        "granted producer write"
                    )
                budget[dep_id] += self.entries[dep_id].dependency_number
            elif kind == "read-released":
                if budget[dep_id] <= 0:
                    violations.append(
                        f"{dep_id}: read released at cycle {cycle} before "
                        "the producer write armed the guard"
                    )
                else:
                    budget[dep_id] -= 1
        return violations
