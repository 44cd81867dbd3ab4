"""Longest-prefix-match forwarding table.

The core function of the IP forwarder: map a destination address to an
egress port.  The implementation keeps one exact-match dictionary per
prefix length and probes from /32 down — simple, correct, and fast enough
for simulation (the paper's hardware version is the ~1000-slice "core
forwarding function" whose area we treat as a constant, §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .packet import format_ip


@dataclass(frozen=True)
class Route:
    """One routing entry."""

    prefix: int
    prefix_len: int
    egress_port: int

    def __str__(self) -> str:
        return f"{format_ip(self.prefix)}/{self.prefix_len} -> port {self.egress_port}"


def _mask(prefix_len: int) -> int:
    if prefix_len == 0:
        return 0
    return (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF


@dataclass
class LpmTable:
    """Longest-prefix-match table over IPv4 destinations."""

    default_port: int = 0
    _by_length: dict[int, dict[int, Route]] = field(default_factory=dict)

    def add_route(self, prefix: int, prefix_len: int, egress_port: int) -> Route:
        """Insert a route; the prefix is masked to its length."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"prefix length {prefix_len} out of range")
        if egress_port < 0:
            raise ValueError("egress port must be non-negative")
        masked = prefix & _mask(prefix_len)
        route = Route(masked, prefix_len, egress_port)
        self._by_length.setdefault(prefix_len, {})[masked] = route
        return route

    def lookup(self, dst_addr: int) -> int:
        """The egress port of the longest matching prefix (or the default)."""
        route = self.lookup_route(dst_addr)
        return route.egress_port if route is not None else self.default_port

    def lookup_route(self, dst_addr: int) -> Optional[Route]:
        for prefix_len in sorted(self._by_length, reverse=True):
            masked = dst_addr & _mask(prefix_len)
            route = self._by_length[prefix_len].get(masked)
            if route is not None:
                return route
        return None

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_length.values())

    def as_function(self) -> Callable[[int], int]:
        """The table as a combinational-function stand-in for the hic
        ``lpm_lookup`` intrinsic (plugged into the simulator)."""
        return self.lookup


def demo_table() -> LpmTable:
    """A small deterministic table: 10.i/16 on port i for four ports, and
    192.168.0/24 on port 4."""
    from .packet import ip

    table = LpmTable(default_port=0)
    for i in range(4):
        table.add_route(ip(10, i, 0, 0), 16, i)
    table.add_route(ip(192, 168, 0, 0), 24, 4)
    return table
