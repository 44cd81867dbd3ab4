"""Unit tests for the lock-based baseline controller."""

import pytest

from repro.core import LockBaselineController, MemRequest
from repro.memory import BlockRam, DependencyEntry, DependencyList


def make_controller(consumers=2):
    names = [f"c{i}" for i in range(consumers)]
    deplist = DependencyList(
        bram="bram0",
        entries=[DependencyEntry("d0", consumers, 0, "prod", tuple(names))],
    )
    controller = LockBaselineController(
        BlockRam("bram0"), deplist, ["prod"] + names
    )
    return controller, names


def run_until_granted(controller, requests, max_cycles=200):
    """Drive the controller until every request completes; returns
    client -> (grant_cycle, data)."""
    outcomes = {}
    pending = dict(requests)
    for cycle in range(max_cycles):
        for client, request in pending.items():
            controller.submit(request)
        results = controller.arbitrate(cycle)
        for client, result in results.items():
            if result.granted and client in pending:
                outcomes[client] = (cycle, result.data)
                del pending[client]
        if not pending:
            return outcomes
    raise AssertionError(f"requests never completed: {sorted(pending)}")


class TestProtocol:
    def test_write_then_reads_complete(self):
        controller, names = make_controller()
        outcomes = run_until_granted(
            controller,
            {"prod": MemRequest("prod", "G", 0, True, data=55, dep_id="d0")},
        )
        assert "prod" in outcomes
        outcomes = run_until_granted(
            controller,
            {
                name: MemRequest(name, "G", 0, False, dep_id="d0")
                for name in names
            },
        )
        assert all(data == 55 for __, data in outcomes.values())

    def test_consumer_spins_until_data_valid(self):
        controller, __ = make_controller(consumers=1)
        # Consumer alone: spins (acquire, probe-fail, backoff) forever.
        for cycle in range(12):
            controller.submit(MemRequest("c0", "G", 0, False, dep_id="d0"))
            results = controller.arbitrate(cycle)
            assert "c0" not in results
        assert controller.stats.failed_probes > 0
        assert controller.stats.spin_cycles > 0

    def test_minimum_three_cycles_per_access(self):
        # Uncontended write: acquire + access + release = 3 cycles.
        controller, __ = make_controller()
        outcomes = run_until_granted(
            controller,
            {"prod": MemRequest("prod", "G", 0, True, data=1, dep_id="d0")},
        )
        grant_cycle, __ = outcomes["prod"]
        assert grant_cycle == 2  # cycles 0,1,2

    def test_overhead_exceeds_guarded_port_cost(self):
        # The paper's wrappers complete a guarded access in one granted
        # cycle; the lock protocol can never beat three.
        controller, names = make_controller()
        run_until_granted(
            controller,
            {"prod": MemRequest("prod", "G", 0, True, data=1, dep_id="d0")},
        )
        run_until_granted(
            controller,
            {n: MemRequest(n, "G", 0, False, dep_id="d0") for n in names},
        )
        stats = controller.stats
        assert stats.useful_accesses == 3
        assert stats.overhead_per_access >= 3.0

    def test_producer_blocks_while_unconsumed(self):
        controller, __ = make_controller(consumers=1)
        run_until_granted(
            controller,
            {"prod": MemRequest("prod", "G", 0, True, data=1, dep_id="d0")},
        )
        # Second write spins until the consumer drains.
        for cycle in range(10, 20):
            controller.submit(MemRequest("prod", "G", 0, True, data=2, dep_id="d0"))
            assert "prod" not in controller.arbitrate(cycle)
        assert controller.stats.failed_probes > 0

    def test_mutual_exclusion_single_lock_holder(self):
        controller, names = make_controller(consumers=2)
        # Everyone contends; protocol must still serialize correctly.
        requests = {
            "prod": MemRequest("prod", "G", 0, True, data=9, dep_id="d0")
        }
        requests.update(
            {n: MemRequest(n, "G", 0, False, dep_id="d0") for n in names}
        )
        outcomes = run_until_granted(controller, requests)
        prod_cycle = outcomes["prod"][0]
        for name in names:
            assert outcomes[name][0] > prod_cycle
            assert outcomes[name][1] == 9


class TestAccounting:
    def test_port_a_bypasses_locks(self):
        controller, __ = make_controller()
        controller.submit(MemRequest("t", "A", 5, True, data=4))
        assert controller.arbitrate(0)["t"].granted
        assert controller.stats.protocol_cycles == 0

    def test_unknown_address_rejected(self):
        controller, __ = make_controller()
        controller.submit(MemRequest("c0", "G", 99, False, dep_id="d0"))
        with pytest.raises(KeyError):
            controller.arbitrate(0)
