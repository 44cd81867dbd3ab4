"""IPv4 packet model matching the hic ``message`` layout.

The paper's evaluation uses "a simple Internet Protocol (IP) packet
forwarding application"; this module provides the packet representation the
traffic generators emit and the forwarding threads process.  Field names
mirror :data:`repro.hic.types.MESSAGE_FIELDS`, so a packet converts to the
message dictionary the simulator's interfaces carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..hic.types import MESSAGE_FIELDS


def ip(a: int, b: int, c: int, d: int) -> int:
    """Dotted-quad helper: ``ip(10, 0, 0, 1)`` -> the 32-bit address."""
    for octet in (a, b, c, d):
        if not 0 <= octet <= 255:
            raise ValueError(f"octet {octet} out of range")
    return (a << 24) | (b << 16) | (c << 8) | d


def format_ip(addr: int) -> str:
    """Inverse of :func:`ip`."""
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Ipv4Packet:
    """One packet, with the header fields the forwarding path touches."""

    src_addr: int
    dst_addr: int
    length: int = 64
    ttl: int = 64
    protocol: int = 17  # UDP
    port_in: int = 0
    port_out: int = 0
    checksum: int = 0
    payload: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"ttl {self.ttl} out of range")
        if not 20 <= self.length <= 65535:
            raise ValueError(f"length {self.length} out of range")

    # -- checksum --------------------------------------------------------------------

    def header_words(self) -> list[int]:
        """The 16-bit header words covered by the checksum (checksum field
        itself excluded, per RFC 791)."""
        return [
            self.length & 0xFFFF,
            ((self.ttl & 0xFF) << 8) | (self.protocol & 0xFF),
            (self.src_addr >> 16) & 0xFFFF,
            self.src_addr & 0xFFFF,
            (self.dst_addr >> 16) & 0xFFFF,
            self.dst_addr & 0xFFFF,
        ]

    def compute_checksum(self) -> int:
        """RFC 1071 ones'-complement sum over the header words."""
        total = sum(self.header_words())
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        return (~total) & 0xFFFF

    def with_checksum(self) -> "Ipv4Packet":
        return replace(self, checksum=self.compute_checksum())

    # -- forwarding transformations ----------------------------------------------------

    @staticmethod
    def incremental_checksum_update(
        checksum: int, old_word: int, new_word: int
    ) -> int:
        """RFC 1624 incremental checksum update: recompute the header
        checksum after one 16-bit header word changed (the TTL decrement
        case in a forwarder), without touching the other words:
        ``HC' = ~(~HC + ~m + m')``."""
        total = (~checksum & 0xFFFF) + (~old_word & 0xFFFF) + (new_word & 0xFFFF)
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        return (~total) & 0xFFFF

    @staticmethod
    def ttl_checksum_update(checksum: int, ttl: int, protocol: int) -> int:
        """The forwarder's specific case: the {TTL, protocol} word after a
        TTL decrement."""
        old_word = ((ttl & 0xFF) << 8) | (protocol & 0xFF)
        new_word = (((ttl - 1) & 0xFF) << 8) | (protocol & 0xFF)
        return Ipv4Packet.incremental_checksum_update(
            checksum, old_word, new_word
        )

    def forwarded(self, egress_port: int) -> "Ipv4Packet":
        """The packet after one forwarding hop: TTL decremented, egress
        port stamped, checksum updated."""
        if self.ttl == 0:
            raise ValueError("cannot forward a packet with TTL 0")
        return replace(
            self, ttl=self.ttl - 1, port_out=egress_port
        ).with_checksum()

    @property
    def expired(self) -> bool:
        return self.ttl <= 1

    # -- message conversion --------------------------------------------------------------

    def to_message(self) -> dict[str, int]:
        """The simulator-interface representation (field name -> value)."""
        values = {
            "length": self.length,
            "port_in": self.port_in,
            "port_out": self.port_out,
            "src_addr": self.src_addr,
            "dst_addr": self.dst_addr,
            "ttl": self.ttl,
            "protocol": self.protocol,
            "checksum": self.checksum,
            "payload": self.payload,
        }
        assert set(values) == set(MESSAGE_FIELDS)
        return values
