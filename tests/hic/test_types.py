"""Unit tests for the hic type system."""

import pytest

from repro.hic.types import (
    BOOL,
    CHAR,
    INT,
    MESSAGE,
    BitsType,
    MessageType,
    TypeTable,
    UnionType,
    common_type,
    is_numeric,
)


class TestBuiltinWidths:
    def test_int_is_32_bits(self):
        assert INT.bit_width == 32

    def test_char_is_8_bits(self):
        assert CHAR.bit_width == 8

    def test_bool_is_1_bit(self):
        assert BOOL.bit_width == 1

    def test_message_width_covers_all_fields(self):
        assert MESSAGE.bit_width == 160

    def test_message_field_slice(self):
        offset, width = MessageType.field_slice("dst_addr")
        assert (offset, width) == (64, 32)

    def test_message_unknown_field(self):
        with pytest.raises(KeyError):
            MessageType.field_slice("bogus")

class TestUserTypes:
    def test_bits_type_width(self):
        assert BitsType("addr", 9).bit_width == 9

    def test_bits_type_invalid_width(self):
        with pytest.raises(ValueError):
            BitsType("bad", 0).bit_width

    def test_union_width_is_max(self):
        union = UnionType("u", (INT, CHAR, BitsType("w", 48)))
        assert union.bit_width == 48

    def test_union_of_builtin(self):
        union = UnionType("u", (CHAR,))
        assert union.bit_width == 8


class TestTypeTable:
    def test_builtins_present(self):
        table = TypeTable()
        for name in ("int", "char", "bool", "message"):
            assert name in table

    def test_declare_and_lookup(self):
        table = TypeTable()
        table.declare(BitsType("addr", 9))
        assert table.lookup("addr").bit_width == 9

    def test_duplicate_declaration_rejected(self):
        table = TypeTable()
        table.declare(BitsType("addr", 9))
        with pytest.raises(KeyError):
            table.declare(BitsType("addr", 10))

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError):
            TypeTable().lookup("nothere")

    def test_names_includes_user_types(self):
        table = TypeTable()
        table.declare(BitsType("addr", 9))
        assert "addr" in table.names()


class TestNumericRules:
    def test_is_numeric(self):
        assert is_numeric(INT)
        assert is_numeric(CHAR)
        assert is_numeric(BOOL)
        assert is_numeric(BitsType("w", 12))
        assert not is_numeric(MESSAGE)

    def test_common_type_prefers_wider(self):
        assert common_type(CHAR, INT) is INT
        assert common_type(INT, CHAR) is INT

    def test_common_type_equal_width_prefers_left(self):
        left = BitsType("a", 32)
        assert common_type(left, INT) is left

    def test_common_type_rejects_message(self):
        with pytest.raises(TypeError):
            common_type(INT, MESSAGE)
