"""Crossbar link latency, batching, and round-robin output arbitration."""

import pytest

from repro.core.controller import MemRequest
from repro.fabric import Crossbar


def request(client, address=0, write=False):
    return MemRequest(client=client, port="A", address=address, write=write)


class TestLinkLatency:
    def test_delivery_waits_for_the_link(self):
        xbar = Crossbar(num_banks=2, link_latency=3)
        xbar.push(0, request("t1"), cycle=10)
        assert xbar.deliveries(10) == {}
        assert xbar.deliveries(12) == {}
        delivered = xbar.deliveries(13)
        assert [r.client for r in delivered[0]] == ["t1"]

    def test_zero_latency_delivers_same_cycle(self):
        xbar = Crossbar(num_banks=1, link_latency=0)
        xbar.push(0, request("t1"), cycle=5)
        assert [r.client for r in xbar.deliveries(5)[0]] == ["t1"]

    def test_delivered_entries_leave_the_queue(self):
        xbar = Crossbar(num_banks=1, link_latency=0)
        xbar.push(0, request("t1"), cycle=0)
        assert xbar.occupancy(0) == 1
        xbar.deliveries(0)
        assert xbar.occupancy(0) == 0
        assert xbar.deliveries(1) == {}


class TestBatching:
    def test_batch_size_caps_deliveries_per_cycle(self):
        xbar = Crossbar(num_banks=1, link_latency=0, batch_size=2)
        for i, client in enumerate(["a", "b", "c"]):
            xbar.push(0, request(client, address=i), cycle=0)
        first = xbar.deliveries(0)[0]
        assert len(first) == 2
        second = xbar.deliveries(1)[0]
        assert len(second) == 1
        assert {r.client for r in first} | {second[0].client} == {"a", "b", "c"}

    def test_banks_batch_independently(self):
        xbar = Crossbar(num_banks=2, link_latency=0, batch_size=1)
        xbar.push(0, request("a"), cycle=0)
        xbar.push(1, request("b"), cycle=0)
        delivered = xbar.deliveries(0)
        assert [r.client for r in delivered[0]] == ["a"]
        assert [r.client for r in delivered[1]] == ["b"]


class TestRoundRobin:
    def test_clients_alternate_at_a_hot_bank(self):
        xbar = Crossbar(num_banks=1, link_latency=0, batch_size=1)
        order = []
        for cycle in range(6):
            # Both clients re-queue a request every cycle.
            xbar.push(0, request("a", address=cycle), cycle)
            xbar.push(0, request("b", address=cycle), cycle)
            delivered = xbar.deliveries(cycle)[0]
            order.append(delivered[0].client)
        # No client is served twice in a row while the other waits.
        assert order[:4] == ["a", "b", "a", "b"]

    def test_queue_order_preserved_within_a_client(self):
        xbar = Crossbar(num_banks=1, link_latency=0, batch_size=4)
        for i in range(3):
            xbar.push(0, request("a", address=i), cycle=0)
        delivered = xbar.deliveries(0)[0]
        assert [r.address for r in delivered] == [0, 1, 2]

    def test_pointer_survives_an_absent_last_grantee(self):
        xbar = Crossbar(num_banks=1, link_latency=0, batch_size=1)
        xbar.push(0, request("b"), cycle=0)
        assert xbar.deliveries(0)[0][0].client == "b"
        # "b" gone; "a" and "c" queued: rotation starts after "b" -> "c".
        xbar.push(0, request("a"), cycle=1)
        xbar.push(0, request("c"), cycle=1)
        assert xbar.deliveries(1)[0][0].client == "c"


class TestStatsAndValidation:
    def test_stats_accumulate(self):
        xbar = Crossbar(num_banks=2, link_latency=1, batch_size=1)
        xbar.push(0, request("a"), cycle=0)
        xbar.push(0, request("b"), cycle=0)
        xbar.deliveries(1)  # one delivered, one waits
        xbar.deliveries(2)
        assert xbar.stats.forwarded == 2
        assert xbar.stats.delivered == 2
        assert xbar.stats.queued_peak == 2
        assert xbar.stats.queue_wait_cycles == 1
        assert xbar.stats.per_bank_delivered == {0: 2}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_banks": 0},
            {"num_banks": 1, "link_latency": -1},
            {"num_banks": 1, "batch_size": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Crossbar(**kwargs)
