"""On-chip memory subsystem: BRAM model, allocation, dependency lists.

* :mod:`~repro.memory.bram` — the 18 Kb true-dual-port Virtex-II Pro block
  RAM model used by both the allocator and the simulator;
* :mod:`~repro.memory.allocation` — mapping of hic variables onto BRAM
  words and fabric registers;
* :mod:`~repro.memory.deplist` — the per-BRAM dependency list (CAM-matched
  {dependency number, base address} entries) of the arbitrated organization.
"""

from .allocation import (
    REGISTER_WIDTH_LIMIT,
    WORD_WIDTH,
    WORDS_PER_BRAM,
    MemoryMap,
    Placement,
    Residency,
    allocate,
    dependencies_per_bram,
    words_needed,
)
from .bram import (
    ASPECT_RATIOS,
    BRAM_BITS,
    BlockRam,
)
from .deplist import DependencyEntry, DependencyList
from .offchip import (
    DEFAULT_DEPTH,
    DEFAULT_LATENCY,
    OffchipController,
    OffchipMemory,
)

__all__ = [
    "REGISTER_WIDTH_LIMIT",
    "WORD_WIDTH",
    "WORDS_PER_BRAM",
    "MemoryMap",
    "Placement",
    "Residency",
    "allocate",
    "dependencies_per_bram",
    "words_needed",
    "ASPECT_RATIOS",
    "BRAM_BITS",
    "BlockRam",
    "DependencyEntry",
    "DependencyList",
    "DEFAULT_DEPTH",
    "DEFAULT_LATENCY",
    "OffchipController",
    "OffchipMemory",
]
