"""LPM table edge cases: default routes, host routes, overlap resolution."""

import pytest

from repro.net.lpm import LpmTable, _mask
from repro.net.packet import ip


class TestDefaultRoute:
    def test_slash_zero_matches_everything(self):
        table = LpmTable(default_port=9)
        table.add_route(0, 0, 3)
        assert table.lookup(ip(10, 0, 0, 1)) == 3
        assert table.lookup(ip(255, 255, 255, 255)) == 3
        assert table.lookup(0) == 3

    def test_slash_zero_prefix_is_masked_away(self):
        table = LpmTable()
        route = table.add_route(ip(10, 1, 2, 3), 0, 7)
        assert route.prefix == 0
        assert table.lookup(ip(192, 168, 0, 1)) == 7

    def test_default_port_without_any_route(self):
        table = LpmTable(default_port=5)
        assert table.lookup(ip(1, 2, 3, 4)) == 5
        assert table.lookup_route(ip(1, 2, 3, 4)) is None

    def test_slash_zero_loses_to_anything_longer(self):
        table = LpmTable()
        table.add_route(0, 0, 1)
        table.add_route(ip(10, 0, 0, 0), 8, 2)
        assert table.lookup(ip(10, 9, 9, 9)) == 2
        assert table.lookup(ip(11, 0, 0, 1)) == 1


class TestHostRoute:
    def test_slash_32_matches_exactly_one_address(self):
        table = LpmTable(default_port=0)
        host = ip(10, 0, 0, 42)
        table.add_route(host, 32, 6)
        assert table.lookup(host) == 6
        assert table.lookup(host + 1) == 0
        assert table.lookup(host - 1) == 0

    def test_slash_32_wins_over_every_shorter_prefix(self):
        table = LpmTable()
        host = ip(10, 0, 0, 42)
        table.add_route(ip(10, 0, 0, 0), 8, 1)
        table.add_route(ip(10, 0, 0, 0), 24, 2)
        table.add_route(host, 32, 3)
        assert table.lookup(host) == 3
        assert table.lookup(ip(10, 0, 0, 41)) == 2

    def test_slash_32_mask_is_all_ones(self):
        assert _mask(32) == 0xFFFFFFFF
        assert _mask(0) == 0


class TestOverlappingPrefixes:
    def test_longest_match_wins_regardless_of_insert_order(self):
        ordered = LpmTable()
        ordered.add_route(ip(10, 0, 0, 0), 8, 1)
        ordered.add_route(ip(10, 1, 0, 0), 16, 2)
        ordered.add_route(ip(10, 1, 1, 0), 24, 3)

        reversed_table = LpmTable()
        reversed_table.add_route(ip(10, 1, 1, 0), 24, 3)
        reversed_table.add_route(ip(10, 1, 0, 0), 16, 2)
        reversed_table.add_route(ip(10, 0, 0, 0), 8, 1)

        for table in (ordered, reversed_table):
            assert table.lookup(ip(10, 1, 1, 9)) == 3
            assert table.lookup(ip(10, 1, 2, 9)) == 2
            assert table.lookup(ip(10, 2, 0, 9)) == 1

    def test_same_prefix_same_length_is_replaced(self):
        table = LpmTable()
        table.add_route(ip(10, 0, 0, 0), 16, 1)
        table.add_route(ip(10, 0, 255, 255), 16, 4)  # masks to the same /16
        assert len(table) == 1
        assert table.lookup(ip(10, 0, 3, 3)) == 4


class TestValidation:
    def test_out_of_range_prefix_lengths(self):
        table = LpmTable()
        with pytest.raises(ValueError):
            table.add_route(0, 33, 1)
        with pytest.raises(ValueError):
            table.add_route(0, -1, 1)

