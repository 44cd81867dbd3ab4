"""Wait-state taxonomy and the cycle-attribution ledger.

Every simulated cycle of every thread is attributed to exactly one
*wait state* — the profiler's exclusive taxonomy of where cycles go:

* ``executing`` — the thread's FSM took a transition this cycle;
* ``blocked-read`` — a guarded consumer read waited because the data was
  not yet produced (the dependency guard held it, §3.1/§3.2);
* ``guard-stall`` — a producer write waited for the previous round to
  drain (or a cross-bank request was held at fabric ingress by the
  dependency router);
* ``arbitration-loss`` — the request was *grantable* but lost
  arbitration (round-robin/priority/slot/lock-protocol contention);
* ``crossbar-transit`` — the request was travelling through the fabric
  crossbar;
* ``offchip-latency`` — the request occupied the external-memory
  controller's multi-cycle access window;
* ``idle`` — the thread held without a pending memory request
  (terminal hold, empty receive wait, or a request dropped by a fault
  tap before reaching any port).

Attribution cells are keyed ``(thread, state, site, port)`` where
*site* is the controller/bank that classified the wait (``-`` for
executing/idle, which happen at the thread).  The ledger also keeps a
run-length timeline per thread — contiguous same-classification cycles
merge into one segment — which is what makes the wheel kernel's batch
bookings (``count`` cycles at a frozen classification) byte-identical
to the reference kernel's one-by-one accrual.
"""

from __future__ import annotations

from dataclasses import dataclass

EXECUTING = "executing"
BLOCKED_READ = "blocked-read"
GUARD_STALL = "guard-stall"
ARBITRATION = "arbitration-loss"
CROSSBAR = "crossbar-transit"
OFFCHIP = "offchip-latency"
IDLE = "idle"

#: The exclusive attribution states, in report order.
WAIT_STATES = (
    EXECUTING,
    BLOCKED_READ,
    GUARD_STALL,
    ARBITRATION,
    CROSSBAR,
    OFFCHIP,
    IDLE,
)

#: Site/port placeholder for states that happen at the thread itself.
NO_SITE = "-"


@dataclass(slots=True)
class Segment:
    """A run of contiguous cycles with one classification."""

    thread: str
    state: str
    site: str
    port: str
    start: int
    length: int

    @property
    def end(self) -> int:
        """First cycle after the segment."""
        return self.start + self.length


class AttributionLedger:
    """Exact per-thread cycle accounting.

    ``book`` is the only mutation: one call attributes ``count``
    contiguous cycles of one thread to one ``(state, site, port)``
    cell.  Totals and the run-length timeline stay consistent by
    construction, so conservation (attributed == simulated) holds as
    long as every simulated cycle is booked exactly once.
    """

    def __init__(self) -> None:
        #: append-only booking log; cells and timelines each fold it in
        #: lazily, on their own cursor, so the per-cycle path pays one
        #: append and a report pays only for the view it reads
        self._log: list[tuple[str, str, str, str, int, int]] = []
        self._cells_done = 0
        self._timelines_done = 0
        self._cells: dict[tuple[str, str, str, str], int] = {}
        self._timelines: dict[str, list[Segment]] = {}

    def book(
        self,
        thread: str,
        state: str,
        site: str,
        port: str,
        cycle: int,
        count: int = 1,
    ) -> None:
        self._log.append((thread, state, site, port, cycle, count))

    @property
    def cells(self) -> dict[tuple[str, str, str, str], int]:
        """(thread, state, site, port) -> cycles."""
        log = self._log
        if self._cells_done < len(log):
            cells = self._cells
            for thread, state, site, port, __, count in log[self._cells_done:]:
                key = (thread, state, site, port)
                cells[key] = cells.get(key, 0) + count
            self._cells_done = len(log)
        return self._cells

    @property
    def timelines(self) -> dict[str, list[Segment]]:
        """Per-thread run-length timeline, in booking order (contiguous
        same-classification bookings merge into one segment)."""
        log = self._log
        if self._timelines_done < len(log):
            timelines = self._timelines
            for thread, state, site, port, cycle, count in log[
                self._timelines_done:
            ]:
                timeline = timelines.get(thread)
                if timeline is None:
                    timeline = timelines[thread] = []
                else:
                    last = timeline[-1]
                    if (
                        last.start + last.length == cycle  # last.end
                        and last.state == state
                        and last.site == site
                        and last.port == port
                    ):
                        last.length += count
                        continue
                timeline.append(
                    Segment(thread, state, site, port, cycle, count)
                )
            self._timelines_done = len(log)
        return self._timelines

    # -- aggregate views --------------------------------------------------------------

    def thread_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for (thread, __, ___, ____), count in self.cells.items():
            totals[thread] = totals.get(thread, 0) + count
        return totals

    def state_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for (__, state, ___, ____), count in self.cells.items():
            totals[state] = totals.get(state, 0) + count
        return totals

    def thread_state_totals(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (thread, state, __, ___), count in self.cells.items():
            per = out.setdefault(thread, {})
            per[state] = per.get(state, 0) + count
        return out

    def site_state_totals(self) -> dict[tuple[str, str], int]:
        """(site, state) -> cycles, for the per-controller breakdown."""
        totals: dict[tuple[str, str], int] = {}
        for (__, state, site, ___), count in self.cells.items():
            key = (site, state)
            totals[key] = totals.get(key, 0) + count
        return totals

    def state_fractions(self) -> dict[str, float]:
        """Wait-state fractions of all attributed cycles (sums to 1.0).

        The normalization the analytical model (:mod:`repro.model`)
        predicts and validates against: each state's share of every
        thread's every cycle.  Empty ledger -> empty dict.
        """
        totals = self.state_totals()
        attributed = sum(totals.values())
        if attributed == 0:
            return {}
        return {
            state: count / attributed for state, count in totals.items()
        }

    def sorted_cells(self) -> list[tuple[tuple[str, str, str, str], int]]:
        return sorted(self.cells.items())

    def merge(self, other: "AttributionLedger") -> None:
        """Fold another ledger's cells in (commutative; timelines are
        per-run artifacts and are not merged)."""
        for key, count in other.cells.items():
            self.cells[key] = self.cells.get(key, 0) + count
