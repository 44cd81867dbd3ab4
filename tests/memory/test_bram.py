"""Unit tests for the BRAM model."""

import pytest

from repro.memory import ASPECT_RATIOS, BRAM_BITS, BlockRam


class TestAspectRatios:
    def test_all_ratios_are_18kb(self):
        for depth, width in ASPECT_RATIOS:
            assert depth * width == 16 * 1024 or depth * width == BRAM_BITS
            assert depth * width <= BRAM_BITS


class TestBlockRam:
    def test_default_config(self):
        bram = BlockRam("b0")
        assert bram.depth == 512
        assert bram.width == 36

    def test_write_read_roundtrip(self):
        bram = BlockRam("b0")
        bram.write(5, 1234)
        assert bram.read(5) == 1234

    def test_write_truncates_to_width(self):
        bram = BlockRam("b0", depth=2048, width=9)
        bram.write(0, 0xFFFF)
        assert bram.read(0) == 0x1FF

    def test_initial_contents_zero(self):
        bram = BlockRam("b0")
        assert bram.read(0) == 0
        assert bram.read(511) == 0

    def test_out_of_range_read(self):
        bram = BlockRam("b0")
        with pytest.raises(IndexError):
            bram.read(512)

    def test_out_of_range_write(self):
        bram = BlockRam("b0")
        with pytest.raises(IndexError):
            bram.write(-1, 0)

    def test_invalid_aspect_ratio_rejected(self):
        with pytest.raises(ValueError):
            BlockRam("b0", depth=100, width=36)

    def test_load_preset(self):
        bram = BlockRam("b0")
        bram.load([1, 2, 3])
        assert [bram.read(i) for i in range(3)] == [1, 2, 3]

    def test_load_too_many_words(self):
        bram = BlockRam("b0")
        with pytest.raises(ValueError):
            bram.load([0] * 513)

    def test_utilization(self):
        bram = BlockRam("b0")
        assert bram.utilization(256) == pytest.approx(0.5)
