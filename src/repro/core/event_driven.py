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

from typing import Optional

from ..hic.pragmas import Dependency
from ..memory.bram import BlockRam
from .controller import MemRequest, MemResult, MemoryController
from .errors import ProtocolError
from .modulo import ModuloSchedule, SelectionLogic, SlotKind


class EventDrivenController(MemoryController):
    """Behavioural model of the event-driven statically scheduled wrapper."""

    def __init__(self, bram: BlockRam, dependencies: list[Dependency]):
        super().__init__(bram)
        #: the modulo schedule; its length is the number of port-B
        #: mux/demux leaves and ``select_bits`` the selection width
        self.schedule = ModuloSchedule.build(dependencies)
        self.selection = SelectionLogic(self.schedule)
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

    # -- the grant rule -----------------------------------------------------------------

    def hold(self, request: MemRequest) -> Optional[str]:
        """The §3.2 rule: port A grants one requester every cycle; on the
        guarded port only the access holding the current slot may go.
        A producer off its slot is paced by the schedule
        (``guard-stall``), a consumer off its slot waits for its event
        (``blocked-read``), and an untagged guarded request matches no
        slot (``arbitration-loss``).

        The selection logic advances only when the slot holder's access
        is granted (a blocked schedule does not tick on its own), so a
        wrapper whose blocked requests are all held is quiescent.
        """
        if request.port == "A":
            return None
        if request.dep_id is None:
            return "arbitration-loss"
        if self.selection.enabled(request.client, request.dep_id, request.write):
            return None
        return "guard-stall" if request.write else "blocked-read"

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
