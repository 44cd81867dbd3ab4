"""Unit tests for the arbitrated memory organization (§3.1)."""

import pytest

from repro.core import ArbitratedController, MemRequest
from repro.memory import BlockRam, DependencyEntry, DependencyList


def make_controller(consumers=2, dn=None, extra_entries=()):
    names = [f"c{i}" for i in range(consumers)]
    entries = [
        DependencyEntry(
            "d0", dn or consumers, 0, "prod", tuple(names)
        )
    ]
    entries.extend(extra_entries)
    deplist = DependencyList(bram="bram0", entries=entries)
    bram = BlockRam("bram0")
    controller = ArbitratedController(bram, deplist, names, ["prod"])
    return controller, names


def read_req(client, address=0):
    return MemRequest(client, "C", address, False, dep_id="d0")


def write_req(data, address=0, client="prod"):
    return MemRequest(client, "D", address, True, data=data, dep_id="d0")


class TestGuardedProtocol:
    def test_consumer_blocks_until_producer_writes(self):
        controller, names = make_controller()
        controller.submit(read_req("c0"))
        results = controller.arbitrate(0)
        assert "c0" not in results

    def test_write_then_reads_drain(self):
        controller, names = make_controller()
        controller.submit(write_req(42))
        assert controller.arbitrate(0)["prod"].granted
        granted = []
        for cycle in range(1, 4):
            for name in names:
                if name not in granted:
                    controller.submit(read_req(name))
            results = controller.arbitrate(cycle)
            granted.extend(c for c, r in results.items() if r.granted)
        assert sorted(granted) == names

    def test_read_returns_written_data(self):
        controller, __ = make_controller()
        controller.submit(write_req(1234))
        controller.arbitrate(0)
        controller.submit(read_req("c0"))
        assert controller.arbitrate(1)["c0"].data == 1234

    def test_producer_blocked_until_consumers_drain(self):
        controller, names = make_controller()
        controller.submit(write_req(1))
        controller.arbitrate(0)
        # Second write must block while reads are outstanding.
        controller.submit(write_req(2))
        results = controller.arbitrate(1)
        assert "prod" not in results
        for cycle, name in enumerate(names, start=2):
            controller.submit(read_req(name))
            controller.arbitrate(cycle)
        controller.submit(write_req(2))
        assert controller.arbitrate(10)["prod"].granted

    def test_each_consumer_reads_once_per_write(self):
        controller, names = make_controller(consumers=2)
        controller.submit(write_req(7))
        controller.arbitrate(0)
        controller.submit(read_req("c0"))
        controller.arbitrate(1)
        controller.submit(read_req("c1"))
        controller.arbitrate(2)
        # dn exhausted: further reads block until the next write.
        controller.submit(read_req("c0"))
        assert "c0" not in controller.arbitrate(3)


class TestPriorities:
    def test_d_preempts_c(self):
        # Arm the guard, leave one outstanding read, then contend C vs D:
        # D cannot be granted (outstanding > 0) but C can.
        controller, __ = make_controller(consumers=1)
        controller.submit(write_req(5))
        controller.arbitrate(0)
        controller.submit(read_req("c0"))
        controller.submit(write_req(6))
        results = controller.arbitrate(1)
        # The blocked D does not stop the allowed C read.
        assert results["c0"].granted

    def test_d_wins_when_both_allowed(self):
        # Guard idle: D allowed; C blocked anyway (no data).  After the
        # write, C is allowed next cycle.
        controller, __ = make_controller(consumers=1)
        controller.submit(read_req("c0"))
        controller.submit(write_req(5))
        results = controller.arbitrate(0)
        assert results["prod"].granted
        assert "c0" not in results
        assert controller.override_count == 1

    def test_port_b_starved_by_c_requests(self):
        controller, __ = make_controller(consumers=1)
        controller.submit(read_req("c0"))  # blocked C request
        controller.submit(MemRequest("other", "B", 5, False))
        results = controller.arbitrate(0)
        # "A read or write on port B is allowed as long as there are no
        # current requests on port C or D."
        assert "other" not in results

    def test_port_b_served_when_quiet(self):
        controller, __ = make_controller(consumers=1)
        controller.submit(MemRequest("other", "B", 5, True, data=9))
        assert controller.arbitrate(0)["other"].granted

    def test_port_a_independent_of_port1_traffic(self):
        controller, __ = make_controller(consumers=1)
        controller.submit(write_req(5))
        controller.submit(MemRequest("t9", "A", 8, True, data=3))
        results = controller.arbitrate(0)
        assert results["prod"].granted and results["t9"].granted

    def test_unknown_port_rejected(self):
        controller, __ = make_controller()
        controller.submit(MemRequest("x", "Z", 0, False))
        with pytest.raises(ValueError):
            controller.arbitrate(0)


class TestArbitration:
    def test_round_robin_among_consumers(self):
        controller, names = make_controller(consumers=4, dn=4)
        controller.submit(write_req(1))
        controller.arbitrate(0)
        order = []
        for cycle in range(1, 5):
            for name in names:
                if name not in order:
                    controller.submit(read_req(name))
            results = controller.arbitrate(cycle)
            order.extend(c for c, r in results.items() if r.granted)
        assert order == names  # round robin serves in client order here

    def test_latency_is_nondeterministic_across_consumers(self):
        # The arbitration spreads grants across cycles: consumer waits differ.
        controller, names = make_controller(consumers=4, dn=4)
        controller.submit(write_req(1))
        controller.arbitrate(0)
        done = set()
        for cycle in range(1, 6):
            for name in names:
                if name not in done:
                    controller.submit(read_req(name))
            results = controller.arbitrate(cycle)
            done.update(results)
        waits = controller.waits_for(port="C")
        assert len(set(waits)) > 1

    def test_latency_samples_record_ports(self):
        controller, __ = make_controller(consumers=1)
        controller.submit(write_req(1))
        controller.arbitrate(0)
        controller.submit(read_req("c0"))
        controller.arbitrate(1)
        samples = controller.latency_samples
        assert {s.port for s in samples} == {"D", "C"}


class TestPortARoundRobin:
    """Regression: the port-A arbiter used to be constructed but never
    consulted, so concurrent port-A requests were always resolved in favor
    of the lexicographically-first client."""

    def test_contending_clients_alternate(self):
        controller, __ = make_controller(consumers=1)
        winners = []
        for cycle in range(4):
            controller.submit(MemRequest("aa", "A", 1, False))
            controller.submit(MemRequest("zz", "A", 2, False))
            results = controller.arbitrate(cycle)
            winners.extend(c for c in ("aa", "zz") if c in results)
        assert winners == ["aa", "zz", "aa", "zz"]

    def test_loser_retains_its_issue_cycle(self):
        controller, __ = make_controller(consumers=1)
        controller.submit(MemRequest("aa", "A", 1, False))
        controller.submit(MemRequest("zz", "A", 2, False))
        controller.arbitrate(0)
        controller.submit(MemRequest("zz", "A", 2, False))
        controller.arbitrate(1)
        waits = {
            s.client: s.wait_cycles
            for s in controller.latency_samples
            if s.port == "A"
        }
        assert waits == {"aa": 0, "zz": 1}

    def test_single_client_served_every_cycle(self):
        controller, __ = make_controller(consumers=1)
        for cycle in range(3):
            controller.submit(MemRequest("solo", "A", 4, True, data=cycle))
            assert controller.arbitrate(cycle)["solo"].granted

    def test_design_time_client_list_honored(self):
        controller, __ = make_controller(consumers=1)
        controller._arb_a.clients.extend(["x", "y"])
        controller.submit(MemRequest("y", "A", 1, False))
        controller.submit(MemRequest("x", "A", 2, False))
        results = controller.arbitrate(0)
        # Grant order follows the configured client list, not name order.
        assert "x" in results and "y" not in results


class TestGrantRule:
    """``hold`` states the §3.1 rule once; the wake and the wait
    classification both read it."""

    def test_port_b_is_held_while_c_or_d_has_requests(self):
        controller, __ = make_controller(consumers=1)
        port_b = MemRequest("other", "B", 5, False)
        controller.submit(read_req("c0"))  # unarmed: stays blocked
        controller.submit(port_b)
        controller.arbitrate(0)
        assert controller.hold(port_b) == "arbitration-loss"
        assert controller.hold(read_req("c0")) == "blocked-read"
        assert controller.next_wake(0) is None
        assert controller.classify_wait(port_b) == (
            "arbitration-loss", "bram0", "B"
        )

    def test_port_b_without_c_or_d_requests_wakes_next_cycle(self):
        controller, __ = make_controller(consumers=1)
        loser = MemRequest("zed", "B", 6, False)
        controller.submit(MemRequest("other", "B", 5, False))
        controller.submit(loser)
        assert list(controller.arbitrate(0)) == ["other"]
        assert controller.hold(loser) is None
        assert controller.next_wake(0) == 1
        assert controller.classify_wait(loser) == (
            "arbitration-loss", "bram0", "B"
        )

    def test_guarded_ports_wake_when_their_guard_allows(self):
        controller, __ = make_controller(consumers=1)
        controller.submit(write_req(1))
        controller.arbitrate(0)  # armed: dn = 1 read outstanding
        controller.submit(write_req(2))
        controller.arbitrate(1)
        assert controller.hold(write_req(2)) == "guard-stall"
        assert controller.next_wake(1) is None
        controller.submit(write_req(2))
        controller.submit(read_req("c0"))
        controller.arbitrate(2)  # the read drains the guard
        assert controller.hold(write_req(2)) is None
        assert controller.next_wake(2) == 3
