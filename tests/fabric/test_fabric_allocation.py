"""Fabric-aware allocation and the structured AllocationError."""

import pytest

from repro.analysis.memgraph import (
    build_memory_graphs,
    partition_threads_across_banks,
)
from repro.core.errors import AllocationError, ControllerError
from repro.hic import analyze
from repro.memory.allocation import WORDS_PER_BRAM, allocate


TWO_THREAD_ARRAYS = """
thread a () {
  int table[300];
  int x;
  x = table[0];
}
thread b () {
  int table[300];
  int y;
  y = table[1];
}
"""


class TestFabricPacking:
    def test_interleaved_uses_one_logical_space(self, figure1_checked):
        memory_map = allocate(figure1_checked, fabric_banks=4)
        assert memory_map.bram_names == ["fabric"]
        assert memory_map.fabric_banks == 4
        assert memory_map.fabric_policy == "interleaved"
        # Used words scatter over banks round-robin.
        used = memory_map.bram_fill["fabric"]
        assert sum(memory_map.fabric_bank_fill.values()) == used

    def test_range_spreads_threads_over_banks(self):
        checked = analyze(TWO_THREAD_ARRAYS)
        memory_map = allocate(checked, fabric_banks=2, fabric_policy="range")
        banks_used = {
            placement.base_address // WORDS_PER_BRAM
            for placement in memory_map.placements.values()
            if placement.is_bram and placement.words >= 300
        }
        # Two 300-word tables cannot share one 512-word bank.
        assert banks_used == {0, 1}

    def test_range_uses_access_graph_affinity(self):
        checked = analyze(TWO_THREAD_ARRAYS)
        access, __ = build_memory_graphs(checked)
        memory_map = allocate(
            checked, access=access, fabric_banks=2, fabric_policy="range"
        )
        fills = memory_map.fabric_bank_fill
        assert fills[0] > 0 and fills[1] > 0

    def test_capacity_overflow_is_structured(self, figure1_checked):
        checked = analyze(TWO_THREAD_ARRAYS)
        with pytest.raises(AllocationError) as excinfo:
            allocate(checked, fabric_banks=1)
        error = excinfo.value
        assert error.words_needed is not None
        assert error.words_available == WORDS_PER_BRAM
        assert "1-bank" in str(error)

    def test_unknown_policy_rejected(self, figure1_checked):
        with pytest.raises(ValueError, match="unknown fabric sharding"):
            allocate(figure1_checked, fabric_banks=2, fabric_policy="hashed")

    def test_offchip_spill_is_incompatible(self, figure1_checked):
        with pytest.raises(ValueError, match="allow_offchip"):
            allocate(figure1_checked, fabric_banks=2, allow_offchip=True)

    def test_utilization_accounts_for_all_banks(self, figure1_checked):
        one = allocate(figure1_checked, fabric_banks=1)
        four = allocate(figure1_checked, fabric_banks=4)
        assert one.bram_fill["fabric"] == four.bram_fill["fabric"]
        assert one.utilization("fabric") == pytest.approx(
            4 * four.utilization("fabric")
        )


class TestAllocationError:
    def test_is_a_controller_error_and_a_value_error(self):
        error = AllocationError("boom", variable="v", thread="t")
        assert isinstance(error, ControllerError)
        assert isinstance(error, ValueError)
        assert error.kind == "allocation-error"

    def test_payload_carries_name_and_sizes(self):
        checked = analyze(
            """
thread big () {
  int table[600];
  int x;
  x = table[0];
}
"""
        )
        with pytest.raises(AllocationError) as excinfo:
            allocate(checked)
        error = excinfo.value
        assert error.variable == "table"
        assert error.thread == "big"
        assert error.words_needed == 600
        assert error.words_available == WORDS_PER_BRAM

    def test_describe_includes_the_payload(self):
        error = AllocationError(
            "no room",
            variable="table",
            thread="big",
            words_needed=600,
            words_available=512,
        )
        text = error.describe()
        assert "table" in text and "600" in text and "512" in text

class TestThreadPartitioning:
    def test_balances_by_access_weight(self, figure1_checked):
        access, __ = build_memory_graphs(figure1_checked)
        assignment = partition_threads_across_banks(access, 2)
        assert set(assignment.values()) <= {0, 1}
        # Every thread with storage appears.
        threads = {thread for thread, __v in access.sizes}
        assert threads <= set(assignment)

    def test_single_bank_collapses(self, figure1_checked):
        access, __ = build_memory_graphs(figure1_checked)
        assignment = partition_threads_across_banks(access, 1)
        assert set(assignment.values()) == {0}

    def test_invalid_bank_count(self, figure1_checked):
        access, __ = build_memory_graphs(figure1_checked)
        with pytest.raises(ValueError):
            partition_threads_across_banks(access, 0)
