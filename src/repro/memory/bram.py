"""Model of the Virtex-II Pro on-chip block RAM (BRAM).

The paper's platform (Virtex-II Pro, [4]) provides true dual-ported 18 Kb
block RAMs.  Each port can be configured in one of several aspect ratios;
both the memory allocator and the cycle-accurate simulator use this model.

The behavioural model implements synchronous (registered) reads and writes:
a read issued in cycle *n* delivers data in cycle *n+1*, matching the real
primitive's registered outputs and the paper's single-cycle-access
assumption at the FSM level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Total capacity of one Virtex-II Pro block RAM, in bits (18 Kb).
BRAM_BITS = 18 * 1024

#: Supported (depth, width) aspect ratios of the 18 Kb BRAM primitive.
ASPECT_RATIOS: tuple[tuple[int, int], ...] = (
    (16384, 1),
    (8192, 2),
    (4096, 4),
    (2048, 9),
    (1024, 18),
    (512, 36),
)


@dataclass
class BlockRam:
    """Behavioural model of one 18 Kb dual-ported BRAM.

    Configured with a depth/width; storage is a dense word list.  The model
    checks the single-write-per-port-per-cycle discipline but leaves
    arbitration to the memory-organization wrappers in :mod:`repro.core`.
    """

    name: str
    depth: int = 512
    width: int = 36
    _words: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.depth * self.width > BRAM_BITS:
            raise ValueError(
                f"configuration {self.depth}x{self.width} exceeds "
                f"{BRAM_BITS} bits"
            )
        if (self.depth, self.width) not in ASPECT_RATIOS:
            raise ValueError(
                f"unsupported aspect ratio {self.depth}x{self.width}"
            )
        if not self._words:
            self._words = [0] * self.depth

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
        """Synchronous read: returns the word currently stored."""
        self._check_address(address)
        return self._words[address]

    def write(self, address: int, data: int) -> None:
        """Synchronous write of ``data`` (truncated to the port width)."""
        self._check_address(address)
        self._words[address] = data & self.mask

    def flip_bit(self, address: int, bit: int) -> int:
        """Fault-injection seam: flip one stored bit (an SEU model — no
        port transaction, exactly as a particle strike bypasses the port
        logic).  Returns the corrupted word."""
        self._check_address(address)
        if not 0 <= bit < self.width:
            raise ValueError(
                f"bit {bit} out of range for {self.width}-bit words"
            )
        self._words[address] ^= 1 << bit
        return self._words[address]

    def snapshot(self) -> tuple[int, ...]:
        """The full memory contents, for golden-trace comparison."""
        return tuple(self._words)

    def load(self, words: list[int]) -> None:
        """Initialize memory contents (configuration-time preload)."""
        if len(words) > self.depth:
            raise ValueError("too many words for this BRAM")
        for i, word in enumerate(words):
            self._words[i] = word & self.mask

    def utilization(self, used_words: int) -> float:
        """Fraction of the BRAM's bits occupied by ``used_words`` words."""
        return (used_words * self.width) / BRAM_BITS
