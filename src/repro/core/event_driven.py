"""The event-driven statically scheduled memory organization (paper §3.2).

Port A stays generic; port B sits behind a multiplexer/de-multiplexer
network whose selection logic modulo-schedules producers, and — once the
current producer has written — chains an event through that producer's
consumers in a compile-time-fixed order.  Consumer reads are "initiated
only when the selection logic generates the corresponding slot number",
which makes the post-write latency of every consumer deterministic: the
k-th consumer in the chain reads exactly k cycles after the write.

The price is flexibility: adding a consumer requires regenerating both the
mux network and the producer/consumer FSMs' event handlers (the paper notes
FPGA reconfigurability is what makes this practical).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hic.pragmas import Dependency
from ..memory.bram import BlockRam
from .controller import MemRequest, MemResult, MemoryController
from .errors import ProtocolError
from .modulo import ModuloSchedule, SelectionLogic, SlotKind


@dataclass
class EventDrivenConfig:
    """Structural parameters of one event-driven wrapper."""

    schedule: ModuloSchedule
    address_bits: int = 9
    data_bits: int = 36

    @property
    def mux_leaves(self) -> int:
        """Leaves of the port-B mux/demux network (one per slot client)."""
        return len(self.schedule)

    @property
    def select_bits(self) -> int:
        return self.schedule.select_bits


class EventDrivenController(MemoryController):
    """Behavioural model of the event-driven statically scheduled wrapper."""

    def __init__(
        self,
        bram: BlockRam,
        dependencies: list[Dependency],
        address_bits: int = 9,
    ):
        super().__init__(bram)
        self.schedule = ModuloSchedule.build(dependencies)
        self.selection = SelectionLogic(self.schedule)
        self.config = EventDrivenConfig(
            schedule=self.schedule, address_bits=address_bits
        )
        #: events delivered to consumers: (cycle, dep_id, thread)
        self.events: list[tuple[int, str, str]] = []

    def _arbitrate_cycle(
        self, requests: list[MemRequest], cycle: int
    ) -> dict[str, MemResult]:
        results: dict[str, MemResult] = {}

        port_a = [r for r in requests if r.port == "A"]
        guarded = [r for r in requests if r.port in ("B", "C", "D")]

        # Physical port 0: direct generic access.
        if port_a:
            chosen = min(port_a, key=lambda r: r.client)
            results[chosen.client] = self._perform(chosen)

        # Physical port 1: only the thread holding the current slot may
        # access; everyone else blocks (static schedule).
        slot = self.selection.current
        if slot is not None:
            for request in guarded:
                if request.dep_id is None:
                    raise ProtocolError(
                        "event-driven wrapper port B requires a dep_id",
                        bram=self.bram.name,
                        client=request.client,
                        cycle=cycle,
                    )
                is_producer = request.write
                if self.selection.enabled(
                    request.client, request.dep_id, is_producer
                ):
                    results[request.client] = self._perform(request)
                    next_slot = self.selection.advance(cycle)
                    self.classify_epoch += 1
                    if (
                        is_producer
                        and next_slot is not None
                        and next_slot.kind is SlotKind.CONSUMER
                    ):
                        # The write is the event into the first consumer.
                        self.events.append(
                            (cycle, next_slot.dep_id, next_slot.thread)
                        )
                        if self.observer is not None:
                            self.observer.on_chain_event(
                                self.bram.name,
                                next_slot.dep_id,
                                next_slot.thread,
                                cycle,
                            )
                    elif not is_producer and next_slot is not None:
                        if next_slot.kind is SlotKind.CONSUMER:
                            # Chain the event into the next consumer.
                            self.events.append(
                                (cycle, next_slot.dep_id, next_slot.thread)
                            )
                            if self.observer is not None:
                                self.observer.on_chain_event(
                                    self.bram.name,
                                    next_slot.dep_id,
                                    next_slot.thread,
                                    cycle,
                                )
                    break  # one access per cycle on physical port 1

        return results

    def consumer_latency(self, dep_id: str, thread: str) -> int:
        """The deterministic post-write read latency of a consumer: its
        1-based rank in the dependency's consumer chain."""
        return self.schedule.consumer_rank(dep_id, thread) + 1

    # -- quiescence (fast-kernel wake contract) ---------------------------------------

    def next_wake(self, cycle: int):
        """Quiescent unless a re-asserted blocked request can be served.

        The selection logic advances only when the slot-holding thread's
        access is granted — a blocked schedule does not tick on its own
        — so the wrapper is quiescent exactly when no blocked port-A
        request exists and no blocked guarded request matches the
        current slot.
        """
        slot = self.selection.current
        for request in self._ungranted.values():
            if request.port == "A":
                return cycle + 1
            if slot is not None and request.dep_id is not None:
                if self.selection.enabled(
                    request.client, request.dep_id, request.write
                ):
                    return cycle + 1
        return None

    # -- wait attribution (profiler seam) ----------------------------------------------

    def classify_wait(self, request: MemRequest) -> tuple[str, str, str]:
        """Mirror of the §3.2 slot rules: a guarded request whose slot
        is *not* selected waits on the static schedule — for a producer
        that is the guard pacing it (``guard-stall``), for a consumer it
        is the not-yet-signalled event (``blocked-read``).  A request
        whose slot *is* enabled (or any port-A request) merely lost the
        one-access-per-cycle arbitration."""
        site = self.bram.name
        if request.port != "A" and request.dep_id is not None:
            slot = self.selection.current
            if slot is None or not self.selection.enabled(
                request.client, request.dep_id, request.write
            ):
                state = "guard-stall" if request.write else "blocked-read"
                return (state, site, request.port)
        return ("arbitration-loss", site, request.port)

    # -- watchdog recovery tap --------------------------------------------------------

    def force_unblock(self, request: MemRequest, cycle: int) -> bool:
        """Break-dependency recovery: skip the stuck slot.

        The static schedule has exactly one slot enabled; if its thread is
        dead the whole chain hangs.  Advancing the selection logic past the
        slot lets the rest of the chain proceed — the skipped access simply
        never happens, which the watchdog records as a degradation.
        """
        if self.selection.current is None:
            return False
        self.classify_epoch += 1
        self.selection.advance(cycle)
        return True

    def reset(self) -> None:
        super().reset()
        self.selection.reset()
        self.events.clear()
