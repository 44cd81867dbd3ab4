"""Unit tests for the dependency list (the §3.1 guard structure)."""

import pytest

from repro.hic import analyze
from repro.memory import DependencyList, allocate
from tests.conftest import make_fanout_source


def build_figure1_list(figure1_checked):
    mm = allocate(figure1_checked)
    return DependencyList.build("bram0", figure1_checked.dependencies, mm)


class TestConstruction:
    def test_build_from_figure1(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        assert len(deplist) == 1
        entry = deplist.entries[0]
        assert entry.dep_id == "mt1"
        assert entry.dependency_number == 2
        assert entry.producer_thread == "t1"
        assert entry.consumer_threads == ("t2", "t3")

    def test_base_address_matches_allocation(self, figure1_checked):
        mm = allocate(figure1_checked)
        deplist = DependencyList.build("bram0", figure1_checked.dependencies, mm)
        assert deplist.entries[0].base_address == mm.placement("t1", "x1").base_address

    def test_wrong_bram_rejected(self, figure1_checked):
        mm = allocate(figure1_checked)
        with pytest.raises(ValueError):
            DependencyList.build("bram9", figure1_checked.dependencies, mm)

    @pytest.mark.parametrize("consumers", [2, 4, 8])
    def test_fanout_dependency_numbers(self, consumers):
        checked = analyze(make_fanout_source(consumers))
        mm = allocate(checked)
        deplist = DependencyList.build("bram0", checked.dependencies, mm)
        assert deplist.entries[0].dependency_number == consumers


class TestCamMatch:
    def test_match_hits_guarded_address(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        address = deplist.entries[0].base_address
        assert deplist.match(address) is deplist.entries[0]

    def test_match_misses_unguarded_address(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        assert deplist.match(499) is None

    def test_entry_for_by_id(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        assert deplist.entry_for("mt1").dep_id == "mt1"
        with pytest.raises(KeyError):
            deplist.entry_for("nothere")


class TestGuardProtocol:
    def test_consumer_blocks_before_write(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        address = deplist.entries[0].base_address
        assert not deplist.consumer_read_allowed(address)

    def test_producer_allowed_when_idle(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        address = deplist.entries[0].base_address
        assert deplist.producer_write_allowed(address)

    def test_write_arms_dn_reads(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        address = deplist.entries[0].base_address
        deplist.note_producer_write(address)
        assert deplist.consumer_read_allowed(address)
        assert not deplist.producer_write_allowed(address)
        deplist.note_consumer_read(address)
        assert deplist.consumer_read_allowed(address)
        deplist.note_consumer_read(address)
        # Cycle complete: guard disarms, producer may write again.
        assert not deplist.consumer_read_allowed(address)
        assert deplist.producer_write_allowed(address)

    def test_extra_consumer_read_rejected(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        address = deplist.entries[0].base_address
        with pytest.raises(RuntimeError):
            deplist.note_consumer_read(address)

    def test_unguarded_write_has_no_entry(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        assert not deplist.producer_write_allowed(400)
        with pytest.raises(KeyError):
            deplist.note_producer_write(400)

    def test_unguarded_read_is_defensively_granted(self, figure1_checked):
        deplist = build_figure1_list(figure1_checked)
        assert deplist.consumer_read_allowed(400)
