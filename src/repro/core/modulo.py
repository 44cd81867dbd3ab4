"""Modulo scheduling for the event-driven statically scheduled organization.

Section 3.2: "The selection logic uses modulo scheduling method to schedule
the producer and consumer memory accesses.  Modulo scheduling happens at two
levels: between different producers and between different consumers of a
given producer. ... This scheduling however is implemented as an event from
the producer thread into the first consumer thread, from the first consumer
thread into the second, and so on."

:class:`ModuloSchedule` is the compile-time artifact (the slot table wired
into the selection logic); :class:`SelectionLogic` is its runtime behaviour
used by the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..hic.pragmas import Dependency


class SlotKind(enum.Enum):
    PRODUCER = "producer"
    CONSUMER = "consumer"


@dataclass(frozen=True)
class Slot:
    """One entry of the static slot table."""

    index: int
    kind: SlotKind
    dep_id: str
    thread: str

    def describe(self) -> str:
        return f"slot{self.index}:{self.kind.value}:{self.thread}({self.dep_id})"


@dataclass
class ModuloSchedule:
    """The compile-time slot table of one BRAM's selection logic.

    The table interleaves producers round-robin ("between different
    producers"), and after each producer slot lists that producer's
    consumers in their declared (compile-time) order.
    """

    slots: list[Slot] = field(default_factory=list)

    @classmethod
    def build(cls, dependencies: list[Dependency]) -> "ModuloSchedule":
        slots: list[Slot] = []
        for dep in dependencies:
            slots.append(
                Slot(len(slots), SlotKind.PRODUCER, dep.dep_id, dep.producer_thread)
            )
            for ref in dep.consumers:
                slots.append(
                    Slot(len(slots), SlotKind.CONSUMER, dep.dep_id, ref.thread)
                )
        return cls(slots)

    def __len__(self) -> int:
        return len(self.slots)

    def producer_slots(self) -> list[Slot]:
        return [s for s in self.slots if s.kind is SlotKind.PRODUCER]

    @property
    def select_bits(self) -> int:
        """Width of the selection value driving the mux network."""
        return max(1, (len(self.slots) - 1).bit_length())


@dataclass
class SelectionLogic:
    """Runtime behaviour of the selection logic.

    The current slot's thread is the only one whose port-B access is
    enabled.  A producer slot *blocks* until its producer performs the
    write ("The producer thread starts the selection logic — until this
    point the selection logic is blocking"); each consumer slot blocks
    until that consumer's read completes, then the event chains onward.
    """

    schedule: ModuloSchedule
    _position: int = 0
    event_log: list[tuple[int, str]] = field(default_factory=list)

    @property
    def current(self) -> Slot | None:
        if not self.schedule.slots:
            return None
        return self.schedule.slots[self._position]

    def enabled(self, thread: str, dep_id: str, is_producer: bool) -> bool:
        """Whether the access (thread, dep, role) holds the current slot."""
        slot = self.current
        if slot is None:
            return False
        wanted = SlotKind.PRODUCER if is_producer else SlotKind.CONSUMER
        return (
            slot.kind is wanted
            and slot.dep_id == dep_id
            and slot.thread == thread
        )

    def advance(self, cycle: int = 0) -> Slot | None:
        """Move to the next slot (called when the current access completes).
        Returns the new current slot."""
        if not self.schedule.slots:
            return None
        slot = self.schedule.slots[self._position]
        self.event_log.append((cycle, slot.describe()))
        self._position = (self._position + 1) % len(self.schedule.slots)
        return self.current
