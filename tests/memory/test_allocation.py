"""Unit tests for memory allocation."""

import pytest

from repro.analysis import build_memory_graphs
from repro.hic import analyze
from repro.hic.types import MESSAGE_FIELDS
from repro.memory import (
    WORDS_PER_BRAM,
    Residency,
    allocate,
    dependencies_per_bram,
)
from repro.memory.allocation import symbol_words
from tests.conftest import make_fanout_source


class TestResidency:
    def test_produced_variable_is_bram_resident(self, figure1_checked):
        mm = allocate(figure1_checked)
        assert mm.placement("t1", "x1").is_bram

    def test_private_scalar_stays_in_registers(self, figure1_checked):
        mm = allocate(figure1_checked)
        placement = mm.placement("t1", "xtmp")
        assert placement.residency is Residency.REGISTER

    def test_consumer_target_is_register(self, figure1_checked):
        # Only the guarded (produced) address needs BRAM.
        mm = allocate(figure1_checked)
        assert mm.placement("t2", "y1").residency is Residency.REGISTER

    def test_array_is_bram_resident(self):
        checked = analyze("thread t () { int a[8], i; i = a[0]; }")
        mm = allocate(checked)
        assert mm.placement("t", "a").is_bram

    def test_message_is_bram_resident(self):
        checked = analyze("thread t () { message m; m.ttl = 1; }")
        mm = allocate(checked)
        assert mm.placement("t", "m").is_bram


class TestWordLayout:
    def test_scalar_int_occupies_one_word(self, figure1_checked):
        mm = allocate(figure1_checked)
        assert mm.placement("t1", "x1").words == 1

    def test_array_word_per_element(self):
        checked = analyze("thread t () { int a[16], i; i = a[0]; }")
        mm = allocate(checked)
        assert mm.placement("t", "a").words == 16

    def test_message_field_per_word(self):
        checked = analyze("thread t () { message m; m.ttl = 1; }")
        mm = allocate(checked)
        assert mm.placement("t", "m").words == len(MESSAGE_FIELDS)

    def test_symbol_words_rejects_wide_array_elements(self):
        checked = analyze("type wide : 40;\nthread t () { int x; x = 1; }")
        # build a fake symbol through the scope API
        from repro.hic.semantic import Symbol
        from repro.hic.types import BitsType

        symbol = Symbol("w", BitsType("wide", 40), array_size=4)
        with pytest.raises(ValueError):
            symbol_words(symbol)

    def test_no_address_overlap_within_bram(self, figure1_checked):
        mm = allocate(figure1_checked)
        for bram in mm.bram_names:
            placements = sorted(
                (p for p in mm.placements.values() if p.bram == bram),
                key=lambda p: p.base_address,
            )
            cursor = 0
            for p in placements:
                assert p.base_address >= cursor
                cursor = p.base_address + p.words


class TestPacking:
    def test_figure1_fits_one_bram(self, figure1_checked):
        mm = allocate(figure1_checked)
        assert mm.bram_count() == 1

    def test_overflow_spills_to_second_bram(self):
        # Two 400-word arrays cannot share one 512-word BRAM.
        checked = analyze(
            "thread t () { int a[400], i; i = a[0]; }\n"
            "thread u () { int b[400], j; j = b[0]; }"
        )
        mm = allocate(checked)
        assert mm.bram_count() == 2

    def test_variable_too_big_for_any_bram(self):
        checked = analyze("thread t () { int a[600], i; i = a[0]; }")
        with pytest.raises(ValueError, match="more than one BRAM"):
            allocate(checked)

    def test_affinity_guided_packing_runs(self, figure1_checked):
        access = build_memory_graphs(figure1_checked)
        mm = allocate(figure1_checked, access=access)
        assert mm.placement("t1", "x1").is_bram

    def test_fill_never_exceeds_capacity(self):
        checked = analyze(
            "\n".join(
                f"thread t{i} () {{ int a{i}[100], x{i}; x{i} = a{i}[0]; }}"
                for i in range(12)
            )
        )
        mm = allocate(checked)
        for bram in mm.bram_names:
            assert mm.bram_fill[bram] <= WORDS_PER_BRAM

    def test_register_bits(self, figure1_checked):
        mm = allocate(figure1_checked)
        # xtmp, x2, y1, y2, z1, z2 are registers: 6 * 32 bits
        registers = [
            p for p in mm.placements.values()
            if p.residency is Residency.REGISTER
        ]
        assert sum(p.bits for p in registers) == 6 * 32

    def test_utilization(self, figure1_checked):
        mm = allocate(figure1_checked)
        assert 0 < mm.utilization("bram0") < 0.01

    def test_unknown_placement_raises(self, figure1_checked):
        mm = allocate(figure1_checked)
        with pytest.raises(KeyError):
            mm.placement("t1", "ghost")


class TestDependencyGrouping:
    def test_figure1_grouping(self, figure1_checked):
        mm = allocate(figure1_checked)
        groups = dependencies_per_bram(mm, figure1_checked.dependencies)
        assert [d.dep_id for d in groups["bram0"]] == ["mt1"]

    @pytest.mark.parametrize("consumers", [2, 4, 8])
    def test_fanout_scenarios_single_bram(self, consumers):
        checked = analyze(make_fanout_source(consumers))
        mm = allocate(checked)
        groups = dependencies_per_bram(mm, checked.dependencies)
        assert len(groups["bram0"]) == 1
        assert groups["bram0"][0].dependency_number == consumers


class TestAffinityPacking:
    def test_first_fit_preserved_with_affinity(self):
        # Affinity may reorder co-location but never opens extra BRAMs.
        from repro.analysis import build_memory_graphs
        from repro.net import multi_pair_source

        checked = analyze(multi_pair_source(3, 2))
        access = build_memory_graphs(checked)
        without = allocate(checked)
        with_affinity = allocate(checked, access=access)
        assert with_affinity.bram_count() == without.bram_count() == 1

    def test_affine_variables_colocate_when_spilling(self):
        # Two threads, each with a big array + a small scalar sharing its
        # thread's accesses: when the arrays force two BRAMs, each scalar
        # should land beside its own thread's array.
        source = """
        thread ta () { int big_a[400], xa, sa[4]; xa = big_a[0] + sa[0]; }
        thread tb () { int big_b[400], xb, sb[4]; xb = big_b[0] + sb[0]; }
        """
        from repro.analysis import build_memory_graphs

        checked = analyze(source)
        access = build_memory_graphs(checked)
        mm = allocate(checked, access=access)
        assert mm.bram_count() == 2
        assert (
            mm.placement("ta", "sa").bram == mm.placement("ta", "big_a").bram
        )
        assert (
            mm.placement("tb", "sb").bram == mm.placement("tb", "big_b").bram
        )


class TestStorage:
    """The storage sizes the allocator reads (``Symbol.storage_bits``)."""

    def test_scalar_bits(self):
        checked = analyze("thread t () { int x; char c; x = c; }")
        assert checked.symbol("t", "x").storage_bits == 32
        assert checked.symbol("t", "c").storage_bits == 8

    def test_array_bits(self):
        checked = analyze("thread t () { int a[16], i; i = a[0]; }")
        assert checked.symbol("t", "a").storage_bits == 16 * 32

    def test_message_bits(self):
        checked = analyze("thread t () { message m; m.ttl = 1; }")
        assert checked.symbol("t", "m").storage_bits == 160

    def test_shared_import_not_double_counted(self, figure1_checked):
        # t2 and t3 import x1; only its producer t1 stores it.
        placements = allocate(figure1_checked).placements
        x1_entries = [key for key in placements if key[1] == "x1"]
        assert x1_entries == [("t1", "x1")]
