"""Unit tests for the modulo schedule and selection logic."""

from repro.core import ModuloSchedule, SelectionLogic, SlotKind
from repro.hic.pragmas import ConsumerRef, Dependency


def two_dep_schedule():
    d0 = Dependency(
        "d0", "p0", "x", (ConsumerRef("c0", "v0"), ConsumerRef("c1", "v1"))
    )
    d1 = Dependency("d1", "p1", "y", (ConsumerRef("c2", "v2"),))
    return ModuloSchedule.build([d0, d1])


class TestScheduleTable:
    def test_slot_order_producer_then_consumers(self):
        schedule = two_dep_schedule()
        kinds = [slot.kind for slot in schedule.slots]
        assert kinds == [
            SlotKind.PRODUCER,
            SlotKind.CONSUMER,
            SlotKind.CONSUMER,
            SlotKind.PRODUCER,
            SlotKind.CONSUMER,
        ]

    def test_slot_threads(self):
        schedule = two_dep_schedule()
        assert [slot.thread for slot in schedule.slots] == [
            "p0",
            "c0",
            "c1",
            "p1",
            "c2",
        ]

    def test_producer_slots(self):
        schedule = two_dep_schedule()
        assert len(schedule.producer_slots()) == 2

    def test_select_bits(self):
        schedule = two_dep_schedule()
        assert schedule.select_bits == 3  # 5 slots -> 3 bits

    def test_empty_schedule(self):
        schedule = ModuloSchedule.build([])
        assert len(schedule) == 0
        assert schedule.select_bits == 1


class TestSelectionLogic:
    def test_initial_slot_is_first_producer(self):
        logic = SelectionLogic(two_dep_schedule())
        assert logic.current.kind is SlotKind.PRODUCER
        assert logic.current.thread == "p0"

    def test_enabled_only_for_current_slot(self):
        logic = SelectionLogic(two_dep_schedule())
        assert logic.enabled("p0", "d0", is_producer=True)
        assert not logic.enabled("c0", "d0", is_producer=False)
        assert not logic.enabled("p1", "d1", is_producer=True)

    def test_event_chain_order(self):
        logic = SelectionLogic(two_dep_schedule())
        logic.advance()  # p0 wrote
        assert logic.enabled("c0", "d0", is_producer=False)
        logic.advance()  # c0 read
        assert logic.enabled("c1", "d0", is_producer=False)
        logic.advance()  # c1 read
        assert logic.enabled("p1", "d1", is_producer=True)

    def test_modulo_wraparound(self):
        logic = SelectionLogic(two_dep_schedule())
        for __ in range(5):
            logic.advance()
        assert logic.current.thread == "p0"

    def test_event_log(self):
        logic = SelectionLogic(two_dep_schedule())
        logic.advance(cycle=3)
        assert logic.event_log == [(3, "slot0:producer:p0(d0)")]

    def test_empty_schedule_logic(self):
        logic = SelectionLogic(ModuloSchedule.build([]))
        assert logic.current is None
        assert logic.advance() is None
        assert not logic.enabled("x", "d", True)
