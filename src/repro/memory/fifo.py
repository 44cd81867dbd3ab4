"""Plain FIFO channel controller for FIFO-classified dependencies.

When :mod:`repro.analysis.channels` proves a dependency is a
single-writer in-order stream, the flow lowers it to this controller
instead of a guarded BRAM wrapper: a BRAM-backed ring buffer with
full/empty handshakes and no dependency CAM.  It implements the same
:class:`~repro.core.controller.MemoryController` cycle protocol as the
§3.1/§3.2 organizations, so executors, kernels (including the event
wheel's ``next_wake`` quiescence contract), telemetry, and the
differential harness treat it like any other memory organization.

Semantics (stated once, by :meth:`FifoChannelController.hold`):

* a **push** (producer write) is grantable iff the channel was not full
  at the start of the cycle;
* a **pop** (consumer read) is grantable iff the channel was not empty
  at the start of the cycle — non-fallthrough, so a value pushed in
  cycle ``t`` is readable in ``t + 1``, matching the guarded
  organizations' one-cycle handoff;
* push and pop may grant in the same cycle (the two BRAM ports).

The controller is also the runtime assertion harness behind the
classification pass: any access that violates the proven channel shape —
a write from a thread other than the producer, a read from a thread
other than the consumer, or an access without the channel's dependency
tag — raises a structured :class:`ChannelProtocolError` instead of
silently corrupting the stream.  Port names are deliberately ignored
(requests key on read/write): the per-organization guarded-port
remapping (C/D -> B or G) must not change FIFO semantics.
"""

from __future__ import annotations

from typing import Optional

from ..core.controller import MemRequest, MemResult, MemoryController
from ..hic.pragmas import Dependency
from .bram import BlockRam

#: Default channel capacity in values.  Deep enough to decouple stage
#: timing, shallow enough that the RTL head/tail counters stay tiny.
DEFAULT_FIFO_DEPTH = 16


def _channel_error(message: str, **payload):
    # Local import: repro.core imports repro.memory at package init.
    from ..core.errors import ChannelProtocolError

    return ChannelProtocolError(message, **payload)


class FifoChannelController(MemoryController):
    """One FIFO-lowered channel behind the MemoryController protocol."""

    def __init__(
        self,
        bram: BlockRam,
        dependency: Dependency,
    ):
        if dependency.dependency_number != 1:
            raise ValueError(
                f"dependency {dependency.dep_id!r} has "
                f"{dependency.dependency_number} consumers; FIFO channels "
                "are single-consumer"
            )
        super().__init__(bram)
        #: telemetry discovery seam (see ``Telemetry._discover_dependencies``)
        self.channel_dependency = dependency
        self.dep_id = dependency.dep_id
        self.producer = dependency.producer_thread
        self.consumer = dependency.consumers[0].thread
        self.depth = DEFAULT_FIFO_DEPTH
        #: monotone push/pop counts; occupancy = tail - head, storage at
        #: ``index % depth`` — deterministic ring layout, so the BRAM
        #: snapshot compares bytewise across simulation kernels
        self.head = 0
        self.tail = 0
        #: in-order verification log: every value pushed / popped, in
        #: grant order.  The property suite asserts the popped sequence
        #: is a prefix of the pushed sequence.
        self.pushed_values: list[int] = []
        self.popped_values: list[int] = []

    # -- invariants --------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return self.tail - self.head

    @property
    def full(self) -> bool:
        return self.occupancy >= self.depth

    @property
    def empty(self) -> bool:
        return self.occupancy == 0

    def _check_protocol(self, request: MemRequest, cycle: int) -> None:
        if request.dep_id != self.dep_id:
            raise _channel_error(
                f"access without channel tag (dep {request.dep_id!r}) on "
                f"FIFO channel {self.dep_id!r}",
                bram=self.bram.name,
                client=request.client,
                cycle=cycle,
                dep_id=self.dep_id,
            )
        expected = self.producer if request.write else self.consumer
        if request.client != expected:
            role = "write" if request.write else "read"
            raise _channel_error(
                f"{role} from {request.client!r} on FIFO channel "
                f"{self.dep_id!r} (only {expected!r} may {role})",
                bram=self.bram.name,
                client=request.client,
                cycle=cycle,
                dep_id=self.dep_id,
            )

    # -- cycle protocol ----------------------------------------------------------------

    def _arbitrate_cycle(
        self, requests: list[MemRequest], cycle: int
    ) -> dict[str, MemResult]:
        # Grantability is measured against the occupancy at cycle start:
        # a same-cycle push never feeds a same-cycle pop (non-fallthrough).
        could_pop = not self.empty
        could_push = not self.full
        results: dict[str, MemResult] = {}
        # Pops before pushes: the freed slot is reusable by this cycle's
        # push once the ring wraps (head/tail are monotone either way,
        # so the order changes no stored or returned value).
        for request in sorted(requests):
            self._check_protocol(request, cycle)
            if request.write:
                if not could_push or request.client in results:
                    continue
                slot = self.tail % self.depth
                self.bram.write(slot, request.data)
                self.tail += 1
                self.pushed_values.append(request.data)
                self.classify_epoch += 1
                results[request.client] = MemResult(granted=True)
                if self.observer is not None:
                    self.observer.on_dep_armed(
                        self.bram.name,
                        self.dep_id,
                        request.client,
                        slot,
                        cycle,
                        self.occupancy,
                    )
            else:
                if not could_pop or request.client in results:
                    continue
                slot = self.head % self.depth
                value = self.bram.read(slot)
                self.head += 1
                self.popped_values.append(value)
                self.classify_epoch += 1
                results[request.client] = MemResult(granted=True, data=value)
                if self.observer is not None:
                    self.observer.on_dep_decrement(
                        self.bram.name,
                        self.dep_id,
                        request.client,
                        slot,
                        cycle,
                        self.occupancy,
                    )
        return results

    # -- the grant rule ---------------------------------------------------------------

    def hold(self, request: MemRequest) -> Optional[str]:
        """:meth:`_arbitrate_cycle`'s grantability: a push waits while
        the channel is full (backpressure, held by the channel guard
        exactly like a guarded write with outstanding consumers →
        ``guard-stall``), a pop while it is empty (``blocked-read``)."""
        if request.write:
            return "guard-stall" if self.full else None
        return "blocked-read" if self.empty else None

    # -- watchdog recovery seam --------------------------------------------------------

    def force_unblock(self, request: MemRequest, cycle: int) -> bool:
        """Degrade the channel to free a wedged endpoint: synthesize a
        zero datum for a starved pop, or drop the oldest datum for a
        backpressured push.  Stream integrity is gone either way — the
        watchdog records the recovery."""
        if request.write and self.full:
            self.head += 1
        elif not request.write and self.empty:
            self.bram.write(self.tail % self.depth, 0)
            self.tail += 1
            self.pushed_values.append(0)
        else:
            return False
        self.classify_epoch += 1
        return True

    # -- verification helpers ----------------------------------------------------------

    def in_order(self) -> bool:
        """True iff every popped value left in push order — the runtime
        verification of the classifier's in-order claim."""
        return (
            self.popped_values
            == self.pushed_values[: len(self.popped_values)]
        )

    def describe(self) -> str:
        return (
            f"fifo channel {self.dep_id}: {self.producer} -> "
            f"{self.consumer}, depth {self.depth}, "
            f"{self.tail} pushed / {self.head} popped, "
            f"occupancy {self.occupancy}"
        )
