"""Off-chip memory model.

Section 2: the logical global shared memory "is then mapped on to a
physically distributed on- and off-chip memory organization as is found on
FPGAs".  The paper's evaluation stays on-chip, but the mapping substrate
needs the off-chip tier for data that cannot fit a BRAM: this module
models a ZBT-SRAM-class external memory — large, single-ported, with a
fixed multi-cycle access latency — plus the simple in-order controller
that serializes thread accesses to it.

Synchronized (guarded) variables must stay in BRAM: the paper's wrappers
are BRAM port logic.  The allocator enforces that; off-chip placements are
for bulk private data (large tables, buffers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.controller import MemRequest, MemResult, MemoryController

#: Access latency of the external memory, in fabric cycles.
#: ZBT SRAM behind an FPGA pin interface at ~125 MHz: a handful of cycles
#: for address-out / wave-pipelined data-back.
DEFAULT_LATENCY = 4

#: Default capacity in 36-bit words (2 MB-class part).
DEFAULT_DEPTH = 512 * 1024


@dataclass
class OffchipMemory:
    """Storage model of one external SRAM bank (BlockRam-compatible API)."""

    name: str
    depth: int = DEFAULT_DEPTH
    width: int = 36
    _words: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.depth:
            raise IndexError(
                f"address {address} out of range for {self.name} "
                f"(depth {self.depth})"
            )

    def read(self, address: int) -> int:
        self._check_address(address)
        return self._words.get(address, 0)

    def write(self, address: int, data: int) -> None:
        self._check_address(address)
        self._words[address] = data & self.mask


class OffchipController(MemoryController):
    """In-order single-port controller for an external memory bank.

    One transaction at a time; each occupies the port for ``latency``
    cycles from acceptance to grant.  Waiting requesters are served in
    client-name order (a fixed-priority pin mux — adequate for private
    data, where fairness is a non-issue).
    """

    def __init__(self, memory: OffchipMemory):
        super().__init__(memory)  # type: ignore[arg-type]
        self.latency = DEFAULT_LATENCY
        self._current: Optional[MemRequest] = None
        self._finish_cycle = 0

    def _arbitrate_cycle(
        self, requests: list[MemRequest], cycle: int
    ) -> dict[str, MemResult]:
        results: dict[str, MemResult] = {}
        if self._current is None and requests:
            self._current = min(requests, key=lambda r: (r.client, r.port))
            self._finish_cycle = cycle + self.latency - 1
        if self._current is not None and cycle >= self._finish_cycle:
            # The transaction completes only if the owner is still asking
            # (it always is: a stalled FSM state keeps its request lines up).
            still_pending = any(
                r.key == self._current.key for r in requests
            )
            if still_pending:
                results[self._current.client] = self._perform(self._current)
                self._current = None
        return results

    # -- the grant rule ---------------------------------------------------------------

    def hold(self, request: MemRequest) -> Optional[str]:
        """Every blocked cycle at the external tier is latency: either
        the request owns the in-flight multi-cycle transaction or it is
        serialized behind one on the single port."""
        return "offchip-latency"

    # -- quiescence (fast-kernel wake contract) ---------------------------------------

    def next_wake(self, cycle: int):
        """Driven by time, not by the rule: wake when the in-flight
        transaction can complete, or next cycle if a blocked request
        could be accepted onto the free port."""
        if self._current is not None:
            return max(cycle + 1, self._finish_cycle)
        if self._ungranted:
            return cycle + 1
        return None
