"""Sharding-policy address arithmetic."""

import pytest

from repro.fabric import (
    InterleavedSharding,
    POLICIES,
    RangeSharding,
    make_policy,
)
from repro.memory.allocation import WORDS_PER_BRAM


class TestInterleaved:
    def test_consecutive_words_rotate_across_banks(self):
        policy = InterleavedSharding(4)
        assert [policy.bank_for(a) for a in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_local_addresses_pack_densely(self):
        policy = InterleavedSharding(4)
        assert [policy.local_address(a) for a in range(8)] == [
            0, 0, 0, 0, 1, 1, 1, 1,
        ]

    def test_round_trip_is_bijective(self):
        policy = InterleavedSharding(3)
        seen = set()
        for logical in range(policy.capacity):
            bank = policy.bank_for(logical)
            local = policy.local_address(logical)
            assert policy.logical_address(bank, local) == logical
            seen.add((bank, local))
        assert len(seen) == policy.capacity


class TestRange:
    def test_banks_own_contiguous_slices(self):
        policy = RangeSharding(2)
        edges = [0, WORDS_PER_BRAM - 1, WORDS_PER_BRAM, 2 * WORDS_PER_BRAM - 1]
        assert [policy.bank_for(a) for a in edges] == [0, 0, 1, 1]
        assert [policy.local_address(a) for a in edges] == [
            0, WORDS_PER_BRAM - 1, 0, WORDS_PER_BRAM - 1,
        ]

    def test_round_trip_is_bijective(self):
        policy = RangeSharding(4)
        for logical in range(policy.capacity):
            assert policy.logical_address(
                policy.bank_for(logical), policy.local_address(logical)
            ) == logical


class TestPolicyRegistry:
    def test_make_policy_by_name(self):
        assert isinstance(make_policy("interleaved", 2), InterleavedSharding)
        assert isinstance(make_policy("range", 2), RangeSharding)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown sharding policy"):
            make_policy("hashed", 2)

    def test_registry_names_match_classes(self):
        for name, cls in POLICIES.items():
            assert cls.name == name

    def test_zero_banks_rejected(self):
        with pytest.raises(ValueError):
            make_policy("interleaved", 0)

    def test_out_of_range_address_rejected(self):
        policy = make_policy("interleaved", 2)
        with pytest.raises(ValueError, match="outside"):
            policy.bank_for(2 * WORDS_PER_BRAM)
        with pytest.raises(ValueError, match="outside"):
            policy.local_address(-1)

    def test_bank_names_and_describe(self):
        policy = make_policy("range", 2)
        assert policy.bank_name(0) == "bank0"
        assert policy.bank_name(1) == "bank1"
        assert "range" in policy.describe()
