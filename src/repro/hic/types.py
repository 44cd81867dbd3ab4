"""The hic type system.

Section 2 of the paper lists the supported variable types: ``integer``,
``character``, and user-defined types ("eg: with fixed bit width or a union
of existing types"), plus the pre-defined ``message`` type that models the
logical global shared memory ("a tub of packets (or cells)").

All types have a fixed bit width, because every variable ultimately maps to
bits of an on-chip BRAM or to fabric registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class HicType:
    """Abstract base for all hic types."""

    name: str

    @property
    def bit_width(self) -> int:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntType(HicType):
    """The built-in ``int`` type (32-bit two's complement by default)."""

    width: int = 32
    name: str = "int"

    @property
    def bit_width(self) -> int:
        return self.width


@dataclass(frozen=True)
class CharType(HicType):
    """The built-in ``char`` type (8-bit)."""

    name: str = "char"

    @property
    def bit_width(self) -> int:
        return 8


@dataclass(frozen=True)
class BoolType(HicType):
    """Result type of comparisons and logical operators (1 bit)."""

    name: str = "bool"

    @property
    def bit_width(self) -> int:
        return 1


@dataclass(frozen=True)
class BitsType(HicType):
    """A user-defined fixed-bit-width type, declared ``type name : N;``."""

    name: str
    width: int

    @property
    def bit_width(self) -> int:
        if self.width <= 0:
            raise ValueError(f"type {self.name} has non-positive width")
        return self.width


@dataclass(frozen=True)
class UnionType(HicType):
    """A user-defined union of existing types, declared
    ``type name = union(a, b, ...);``.

    Its storage width is the maximum member width, as in a C union.
    """

    name: str
    members: tuple[HicType, ...]

    @property
    def bit_width(self) -> int:
        return max(member.bit_width for member in self.members)


#: Named fields of the pre-defined ``message`` type.  The paper does not give
#: the field layout; we use a minimal IPv4-oriented layout sufficient for the
#: IP-forwarding evaluation application: a handful of header words plus an
#: opaque payload handle.  Offsets are in bits from the start of the message.
MESSAGE_FIELDS: dict[str, tuple[int, int]] = {
    "length": (0, 16),
    "port_in": (16, 8),
    "port_out": (24, 8),
    "src_addr": (32, 32),
    "dst_addr": (64, 32),
    "ttl": (96, 8),
    "protocol": (104, 8),
    "checksum": (112, 16),
    "payload": (128, 32),
}


@dataclass(frozen=True)
class MessageType(HicType):
    """The pre-defined ``message`` type: one network packet/cell in the tub.

    Threads at the network interface receive and transmit messages one at a
    time; computation threads have at most one message in flight.
    """

    name: str = "message"

    @property
    def bit_width(self) -> int:
        offset, width = max(MESSAGE_FIELDS.values())
        return offset + width

    @staticmethod
    def field_slice(field_name: str) -> tuple[int, int]:
        """Return ``(bit_offset, bit_width)`` of a message field."""
        if field_name not in MESSAGE_FIELDS:
            raise KeyError(f"message has no field {field_name!r}")
        return MESSAGE_FIELDS[field_name]


#: Singleton instances for the built-ins, shared by parser and checker.
INT = IntType()
CHAR = CharType()
BOOL = BoolType()
MESSAGE = MessageType()


@dataclass
class TypeTable:
    """Registry of the named types visible to a hic program."""

    _types: dict[str, HicType] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for builtin in (INT, CHAR, BOOL, MESSAGE):
            self._types.setdefault(builtin.name, builtin)

    def declare(self, hic_type: HicType) -> HicType:
        """Register a user-defined type; duplicate names are an error."""
        if hic_type.name in self._types:
            raise KeyError(f"type {hic_type.name!r} already declared")
        self._types[hic_type.name] = hic_type
        return hic_type

    def lookup(self, name: str) -> HicType:
        if name not in self._types:
            raise KeyError(f"unknown type {name!r}")
        return self._types[name]

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def names(self) -> tuple[str, ...]:
        return tuple(self._types)


def is_numeric(hic_type: HicType) -> bool:
    """Whether a type participates in arithmetic (ints, chars, bit vectors,
    and unions whose members are all numeric)."""
    if isinstance(hic_type, UnionType):
        return all(is_numeric(member) for member in hic_type.members)
    return isinstance(hic_type, (IntType, CharType, BitsType, BoolType))


def common_type(left: HicType, right: HicType) -> HicType:
    """The usual-arithmetic-conversion result of a binary operation.

    The wider operand's type wins; equal widths prefer the left operand.
    Raises ``TypeError`` for non-numeric operands (e.g. whole messages).
    """
    if not is_numeric(left) or not is_numeric(right):
        raise TypeError(f"no common type between {left} and {right}")
    if right.bit_width > left.bit_width:
        return right
    return left
