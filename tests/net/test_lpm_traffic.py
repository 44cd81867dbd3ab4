"""Unit tests for the LPM table and traffic generators."""

import pytest

from repro.net import (
    BernoulliTraffic,
    BurstyTraffic,
    DeterministicTraffic,
    LpmTable,
    PacketFactory,
    PoissonTraffic,
    ip,
    replay,
)


class TestLpm:
    def test_longest_prefix_wins(self):
        table = LpmTable(default_port=9)
        table.add_route(ip(10, 0, 0, 0), 8, 1)
        table.add_route(ip(10, 1, 0, 0), 16, 2)
        table.add_route(ip(10, 1, 2, 0), 24, 3)
        assert table.lookup(ip(10, 1, 2, 5)) == 3
        assert table.lookup(ip(10, 1, 9, 5)) == 2
        assert table.lookup(ip(10, 9, 9, 5)) == 1

    def test_default_port_on_miss(self):
        table = LpmTable(default_port=7)
        assert table.lookup(ip(172, 16, 0, 1)) == 7

    def test_prefix_masked_to_length(self):
        table = LpmTable()
        table.add_route(ip(10, 1, 2, 3), 16, 5)
        assert table.lookup(ip(10, 1, 99, 99)) == 5

    def test_zero_length_default_route(self):
        table = LpmTable(default_port=0)
        table.add_route(0, 0, 4)
        assert table.lookup(ip(8, 8, 8, 8)) == 4

    def test_invalid_prefix_len(self):
        with pytest.raises(ValueError):
            LpmTable().add_route(0, 33, 1)

    def test_as_function(self):
        table = LpmTable(default_port=2)
        fn = table.as_function()
        assert fn(ip(1, 2, 3, 4)) == 2


class TestTrafficGenerators:
    def test_bernoulli_rate(self):
        gen = BernoulliTraffic(rate=0.25, seed=3)
        arrivals = sum(len(gen.arrivals(c, c + 1)) for c in range(4000))
        assert 800 <= arrivals <= 1200  # ~1000 expected

    def test_bernoulli_reproducible(self):
        a = BernoulliTraffic(rate=0.3, seed=9).arrivals(0, 100)
        b = BernoulliTraffic(rate=0.3, seed=9).arrivals(0, 100)
        assert a == b

    def test_bernoulli_invalid_rate(self):
        with pytest.raises(ValueError):
            BernoulliTraffic(rate=1.5)

    def test_poisson_mean_gap(self):
        gen = PoissonTraffic(mean_gap=10.0, seed=4)
        arrivals = [c for c, __ in replay(gen, 5000)]
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        mean_gap = sum(gaps) / len(gaps)
        assert 7 <= mean_gap <= 13

    def test_poisson_invalid_gap(self):
        with pytest.raises(ValueError):
            PoissonTraffic(mean_gap=0.5)

    def test_bursty_pattern(self):
        gen = BurstyTraffic(burst_len=3, gap_len=5, seed=2)
        pattern = [len(gen.arrivals(c, c + 1)) for c in range(16)]
        assert pattern == [1, 1, 1, 0, 0, 0, 0, 0] * 2

    def test_deterministic_interval(self):
        gen = DeterministicTraffic(interval=4)
        arrivals = [c for c, __ in replay(gen, 17)]
        assert arrivals == [0, 4, 8, 12, 16]

    def test_factory_addresses_within_port_range(self):
        factory = PacketFactory(seed=11, ports=4)
        for __ in range(50):
            packet = factory.make()
            second_octet = (packet.dst_addr >> 16) & 0xFF
            assert 0 <= second_octet < 4
            assert packet.checksum == packet.compute_checksum()

    def test_factory_sequence_in_payload(self):
        factory = PacketFactory(seed=1)
        assert factory.make().payload == 1
        assert factory.make().payload == 2
