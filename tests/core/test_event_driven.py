"""Unit tests for the event-driven statically scheduled organization (§3.2)."""

import pytest

from repro.core import EventDrivenController, MemRequest
from repro.hic.pragmas import ConsumerRef, Dependency
from repro.memory import BlockRam


def make_controller(consumers=2):
    dep = Dependency(
        "d0",
        "prod",
        "x",
        tuple(ConsumerRef(f"c{i}", f"v{i}") for i in range(consumers)),
    )
    return EventDrivenController(BlockRam("bram0"), [dep]), dep


def read_req(client, address=0):
    return MemRequest(client, "B", address, False, dep_id="d0")


def write_req(data, address=0):
    return MemRequest("prod", "B", address, True, data=data, dep_id="d0")


class TestStaticSchedule:
    def test_consumers_block_until_producer_writes(self):
        controller, __ = make_controller()
        controller.submit(read_req("c0"))
        controller.submit(read_req("c1"))
        assert controller.arbitrate(0) == {}

    def test_event_chain_is_compile_time_order(self):
        controller, __ = make_controller()
        grants = []
        for cycle in range(4):
            controller.submit(write_req(9))
            controller.submit(read_req("c0"))
            controller.submit(read_req("c1"))
            results = controller.arbitrate(cycle)
            grants.extend(results)
        assert grants[:3] == ["prod", "c0", "c1"]

    def test_out_of_order_consumer_waits(self):
        # c1 requests alone: it must wait until c0 has taken its slot.
        controller, __ = make_controller()
        controller.submit(write_req(9))
        controller.arbitrate(0)
        controller.submit(read_req("c1"))
        assert controller.arbitrate(1) == {}
        controller.submit(read_req("c0"))
        controller.submit(read_req("c1"))
        assert list(controller.arbitrate(2)) == ["c0"]
        controller.submit(read_req("c1"))
        assert list(controller.arbitrate(3)) == ["c1"]

    def test_deterministic_latency_when_all_wait(self):
        # When every consumer is waiting at the write (the §3.2 use model),
        # the k-th consumer reads exactly k cycles after the write.
        controller, dep = make_controller(consumers=4)
        for name in [f"c{i}" for i in range(4)]:
            controller.submit(read_req(name))
        controller.submit(write_req(3))
        write_cycle = None
        read_cycle = {}
        pending = {f"c{i}" for i in range(4)}
        for cycle in range(8):
            results = controller.arbitrate(cycle)
            for client in results:
                if client == "prod":
                    write_cycle = cycle
                else:
                    read_cycle[client] = cycle
                    pending.discard(client)
            for name in pending:
                controller.submit(read_req(name))
        for i in range(4):
            # the post-write latency is the consumer's 1-based chain rank
            assert read_cycle[f"c{i}"] - write_cycle == i + 1

    def test_read_data_matches_write(self):
        controller, __ = make_controller(consumers=1)
        controller.submit(write_req(77))
        controller.arbitrate(0)
        controller.submit(read_req("c0"))
        assert controller.arbitrate(1)["c0"].data == 77

    def test_producer_blocked_until_chain_completes(self):
        controller, __ = make_controller()
        controller.submit(write_req(1))
        controller.arbitrate(0)
        controller.submit(write_req(2))
        assert controller.arbitrate(1) == {}  # slot belongs to c0

    def test_events_recorded(self):
        controller, __ = make_controller()
        controller.submit(write_req(1))
        controller.arbitrate(5)
        assert controller.events == [(5, "d0", "c0")]

    def test_missing_dep_id_rejected(self):
        controller, __ = make_controller()
        controller.submit(MemRequest("c0", "B", 0, False))
        with pytest.raises(ValueError):
            controller.arbitrate(0)


class TestMultipleProducers:
    def test_producers_modulo_scheduled(self):
        d0 = Dependency("d0", "p0", "x", (ConsumerRef("c0", "v0"),))
        d1 = Dependency("d1", "p1", "y", (ConsumerRef("c1", "v1"),))
        controller = EventDrivenController(BlockRam("b"), [d0, d1])
        # p1 ready first, but the schedule starts at p0: p1 waits.
        controller.submit(MemRequest("p1", "B", 1, True, data=5, dep_id="d1"))
        assert controller.arbitrate(0) == {}
        controller.submit(MemRequest("p0", "B", 0, True, data=4, dep_id="d0"))
        controller.submit(MemRequest("p1", "B", 1, True, data=5, dep_id="d1"))
        assert list(controller.arbitrate(1)) == ["p0"]


class TestPortA:
    def test_port_a_unaffected_by_schedule(self):
        controller, __ = make_controller()
        controller.submit(MemRequest("t", "A", 7, True, data=3))
        assert controller.arbitrate(0)["t"].granted
        controller.submit(MemRequest("t", "A", 7, False))
        assert controller.arbitrate(1)["t"].data == 3


class TestConfigAndReset:
    def test_mux_leaves_scale_with_consumers(self):
        for n in (2, 4, 8):
            controller, __ = make_controller(consumers=n)
            assert len(controller.schedule) == 1 + n

    def test_select_bits(self):
        controller, __ = make_controller(consumers=8)
        assert controller.schedule.select_bits == 4  # 9 slots
