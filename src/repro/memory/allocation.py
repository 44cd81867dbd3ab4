"""Memory allocation: mapping hic variables onto BRAMs.

Section 3 of the paper: "the memory allocation process takes into account
available physical memory size (eg: BRAM size of 18 Kb) and number of ports
(eg: dual ports on each BRAM)" and is guided by the memory access graph and
a partial order of operations.  The mapping algorithm itself is explicitly
*not* the paper's focus, so this module implements a straightforward,
deterministic allocator with the properties the controllers need:

* every **shared** variable (a dependency endpoint) is BRAM-resident — the
  whole point of the paper is guarding those BRAM addresses;
* arrays and ``message`` variables are BRAM-resident (too big for fabric
  registers);
* small private scalars stay in fabric **registers** (the FSM datapath);
* BRAM packing is first-fit decreasing by size, with an affinity preference
  that tries to co-locate variables touched by the same threads;
* variables wider than one BRAM word span consecutive words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..analysis.memgraph import MemoryAccessGraph
from ..hic.pragmas import Dependency
from ..hic.semantic import CheckedProgram, Symbol, SymbolKind
from ..hic.types import MESSAGE_FIELDS, MessageType
from .bram import BRAM_BITS


class Residency(enum.Enum):
    """Where a variable's storage lives."""

    REGISTER = "register"
    BRAM = "bram"
    OFFCHIP = "offchip"


#: Scalars at or below this width may stay in fabric registers when private.
REGISTER_WIDTH_LIMIT = 36

#: Word width used for BRAM packing (512x36 aspect ratio).
WORD_WIDTH = 36

#: Words available per BRAM at the packing width.
WORDS_PER_BRAM = BRAM_BITS // WORD_WIDTH  # 512


@dataclass(frozen=True)
class Placement:
    """The physical location of one variable."""

    thread: str
    variable: str
    residency: Residency
    bram: str = ""
    base_address: int = 0
    words: int = 0
    bits: int = 0

    @property
    def is_bram(self) -> bool:
        return self.residency is Residency.BRAM

    @property
    def is_memory(self) -> bool:
        """BRAM- or off-chip-resident (accessed through a controller)."""
        return self.residency in (Residency.BRAM, Residency.OFFCHIP)


@dataclass
class MemoryMap:
    """The complete allocation result."""

    placements: dict[tuple[str, str], Placement] = field(default_factory=dict)
    bram_names: list[str] = field(default_factory=list)
    #: words used per BRAM, for utilization reports
    bram_fill: dict[str, int] = field(default_factory=dict)
    #: off-chip banks used (empty unless something spilled)
    offchip_names: list[str] = field(default_factory=list)
    offchip_fill: dict[str, int] = field(default_factory=dict)
    #: FIFO-lowered channel storages (``fifo_<dep_id>``), one per channel
    #: classified FIFO by :mod:`repro.analysis.channels`.  Deliberately
    #: *not* part of ``bram_names``: channels are not packed address
    #: spaces — each holds exactly its channel's ring buffer.
    fifo_names: list[str] = field(default_factory=list)
    #: words of value storage per FIFO channel (the ring depth is a
    #: controller/RTL parameter, not an allocation property)
    fifo_fill: dict[str, int] = field(default_factory=dict)
    #: >0 when the map targets a sharded fabric: addresses are *logical*
    #: (one space of ``fabric_banks * WORDS_PER_BRAM`` words) and the
    #: sharding policy decides which physical bank serves each word
    fabric_banks: int = 0
    fabric_policy: str = ""
    #: words resident per physical bank index (range policy only; the
    #: interleaved policy scatters every variable across all banks)
    fabric_bank_fill: dict[int, int] = field(default_factory=dict)

    def placement(self, thread: str, variable: str) -> Placement:
        key = (thread, variable)
        if key not in self.placements:
            raise KeyError(f"no placement for {thread}.{variable}")
        return self.placements[key]

    def bram_count(self) -> int:
        return len(self.bram_names)

    def utilization(self, bram: str) -> float:
        capacity = BRAM_BITS * max(1, self.fabric_banks or 1)
        return (self.bram_fill.get(bram, 0) * WORD_WIDTH) / capacity


def words_needed(bits: int) -> int:
    """BRAM words (at the packing width) needed for ``bits`` of storage."""
    return max(1, -(-bits // WORD_WIDTH))


def symbol_words(symbol: Symbol) -> int:
    """BRAM words a symbol occupies, honouring addressable layouts.

    * ``message``: one word per field (field-per-word layout, so field
      accesses are single word reads/writes);
    * arrays: one word per element (elements must fit the 36-bit word);
    * scalars: enough words for the bit width.
    """
    if isinstance(symbol.hic_type, MessageType):
        return len(MESSAGE_FIELDS)
    if symbol.is_array:
        if symbol.hic_type.bit_width > WORD_WIDTH:
            raise ValueError(
                f"array {symbol.name!r}: element width "
                f"{symbol.hic_type.bit_width} exceeds the {WORD_WIDTH}-bit "
                "BRAM word"
            )
        return symbol.array_size
    return words_needed(symbol.storage_bits)


def _decide_residency(
    symbol_bits: int,
    is_array_or_message: bool,
    is_shared: bool,
) -> Residency:
    if is_shared or is_array_or_message or symbol_bits > REGISTER_WIDTH_LIMIT:
        return Residency.BRAM
    return Residency.REGISTER


def _allocation_error(message: str, **payload):
    # Local import: repro.core pulls in this module at package
    # initialization, so a top-level import would be circular.
    from ..core.errors import AllocationError

    return AllocationError(message, **payload)


def allocate(
    checked: CheckedProgram,
    access: MemoryAccessGraph | None = None,
    allow_offchip: bool = False,
    fabric_banks: int = 0,
    fabric_policy: str = "interleaved",
    fifo_channels: dict[tuple[str, str], str] | None = None,
) -> MemoryMap:
    """Allocate every storage-owning variable of a checked program.

    Args:
        checked: The semantically checked program.
        access: Optional access graph, read only by the fabric's
            ``range`` policy (its weighted access counts balance the
            threads across banks).  The single-address packer groups
            variables by owning thread and does not read it.
        allow_offchip: Spill variables too large for one BRAM to the
            off-chip tier instead of failing.  Synchronized (produced)
            variables may never spill — the paper's wrappers are BRAM port
            logic.
        fabric_banks: When positive, allocate into the *logical* address
            space of a sharded memory fabric (``fabric_banks`` banks of
            ``WORDS_PER_BRAM`` words behind one crossbar) instead of
            per-BRAM packing.  The map then has a single pseudo-BRAM named
            ``"fabric"`` and the sharding policy decides physical homes.
        fabric_policy: ``"interleaved"`` (word ``addr % banks``) packs one
            sequential cursor; ``"range"`` (bank ``addr // 512``) places
            each thread's affinity group in a preferred bank, balanced by
            weighted access counts from the access graph.
        fifo_channels: ``(producer_thread, producer_var) -> dep_id`` for
            dependencies the channel classifier lowered to plain FIFOs.
            Each such variable is homed in its own channel storage
            (``fifo_<dep_id>``, base address 0) instead of being packed
            into a guarded BRAM — the FSM's guarded ops then target the
            FIFO controller with no synthesis changes.
    """
    # Only produced variables must live in BRAM: they are the guarded
    # addresses.  Consumer-side targets are ordinary thread-local state.
    shared = {
        (dep.producer_thread, dep.producer_var)
        for dep in checked.dependencies
    }
    items: list[tuple[tuple[str, str], int, int, bool]] = []
    for thread_name, scope in sorted(checked.scopes.items()):
        for name, symbol in sorted(scope.symbols.items()):
            if symbol.kind in (SymbolKind.SHARED, SymbolKind.CONSTANT):
                continue
            is_big = symbol.is_array or symbol.hic_type.name == "message"
            key = (thread_name, name)
            items.append((key, symbol.storage_bits, symbol_words(symbol), is_big))

    memory_map = MemoryMap()
    bram_items: list[tuple[tuple[str, str], int, int]] = []
    for key, bits, words, is_big in items:
        residency = _decide_residency(bits, is_big, key in shared)
        if residency is Residency.REGISTER:
            memory_map.placements[key] = Placement(
                thread=key[0],
                variable=key[1],
                residency=Residency.REGISTER,
                bits=bits,
            )
        else:
            bram_items.append((key, bits, words))

    if fifo_channels:
        if fabric_banks > 0:
            raise ValueError(
                "FIFO channel lowering is incompatible with a sharded "
                "fabric (use channel_synthesis='guarded' with num_banks)"
            )
        remaining: list[tuple[tuple[str, str], int, int]] = []
        for key, bits, words in bram_items:
            dep_id = fifo_channels.get(key)
            if dep_id is None:
                remaining.append((key, bits, words))
                continue
            name = f"fifo_{dep_id}"
            memory_map.placements[key] = Placement(
                thread=key[0],
                variable=key[1],
                residency=Residency.BRAM,
                bram=name,
                base_address=0,
                words=words,
                bits=bits,
            )
            memory_map.fifo_names.append(name)
            memory_map.fifo_fill[name] = words
        bram_items = remaining
        memory_map.fifo_names.sort()

    if fabric_banks > 0:
        if allow_offchip:
            raise ValueError(
                "fabric allocation keeps all data on chip "
                "(allow_offchip is not supported with fabric_banks)"
            )
        _allocate_fabric(
            memory_map, bram_items, fabric_banks, fabric_policy, access
        )
        return memory_map

    # Variables too large for any single BRAM spill to the off-chip tier
    # (when allowed); guarded variables must stay on chip.
    oversize = [item for item in bram_items if item[2] > WORDS_PER_BRAM]
    if oversize and allow_offchip:
        bram_items = [i for i in bram_items if i[2] <= WORDS_PER_BRAM]
        bank = "offchip0"
        memory_map.offchip_names.append(bank)
        cursor = 0
        for key, bits, need in sorted(oversize, key=lambda i: i[0]):
            if key in shared:
                raise _allocation_error(
                    f"produced variable {key[0]}.{key[1]} is too large for a "
                    "BRAM and cannot spill off chip (guards are BRAM logic)",
                    variable=key[1],
                    thread=key[0],
                    words_needed=need,
                    words_available=WORDS_PER_BRAM,
                )
            memory_map.placements[key] = Placement(
                thread=key[0],
                variable=key[1],
                residency=Residency.OFFCHIP,
                bram=bank,
                base_address=cursor,
                words=need,
                bits=bits,
            )
            cursor += need
        memory_map.offchip_fill[bank] = cursor

    # Affinity-aware packing: the natural affinity unit is the owning
    # thread (shared variables are stored with their producer), so items
    # are grouped per thread and groups packed first-fit decreasing.  A
    # group larger than the remaining space splits item-wise, so packing
    # degrades gracefully to per-item first-fit — BRAM count never exceeds
    # what plain FFD needs for the same items.
    for key, bits, need in bram_items:
        if need > WORDS_PER_BRAM:
            raise _allocation_error(
                f"variable {key[0]}.{key[1]} needs {need} words, "
                f"more than one BRAM holds ({WORDS_PER_BRAM})",
                variable=key[1],
                thread=key[0],
                words_needed=need,
                words_available=WORDS_PER_BRAM,
            )

    groups: dict[str, list[tuple[tuple[str, str], int, int]]] = {}
    for item in sorted(bram_items, key=lambda i: (-i[2], i[0])):
        groups.setdefault(item[0][0], []).append(item)
    ordered_groups = sorted(
        groups.values(),
        key=lambda items: (-sum(i[2] for i in items), items[0][0]),
    )

    bram_fill: list[int] = []  # words used per open BRAM

    def place(item, bram_idx: int) -> None:
        key, bits, need = item
        memory_map.placements[key] = Placement(
            thread=key[0],
            variable=key[1],
            residency=Residency.BRAM,
            bram=f"bram{bram_idx}",
            base_address=bram_fill[bram_idx],
            words=need,
            bits=bits,
        )
        bram_fill[bram_idx] += need

    for group in ordered_groups:
        total = sum(need for __, __b, need in group)
        target = None
        if total <= WORDS_PER_BRAM:
            for idx, fill in enumerate(bram_fill):
                if fill + total <= WORDS_PER_BRAM:
                    target = idx
                    break
            if target is None:
                bram_fill.append(0)
                target = len(bram_fill) - 1
            for item in group:
                place(item, target)
        else:
            # Oversized group: split item-wise, first-fit.
            for item in group:
                __, __b, need = item
                target = None
                for idx, fill in enumerate(bram_fill):
                    if fill + need <= WORDS_PER_BRAM:
                        target = idx
                        break
                if target is None:
                    bram_fill.append(0)
                    target = len(bram_fill) - 1
                place(item, target)

    for idx, fill in enumerate(bram_fill):
        name = f"bram{idx}"
        memory_map.bram_names.append(name)
        memory_map.bram_fill[name] = fill

    return memory_map


#: Name of the pseudo-BRAM representing a fabric's logical address space.
FABRIC_BRAM = "fabric"


def _allocate_fabric(
    memory_map: MemoryMap,
    bram_items: list[tuple[tuple[str, str], int, int]],
    fabric_banks: int,
    fabric_policy: str,
    access: MemoryAccessGraph | None,
) -> None:
    """Pack BRAM-resident items into a fabric's logical address space.

    Keeps the single-BRAM packer's deterministic ordering (first-fit
    decreasing over per-thread affinity groups) but places into one logical
    space of ``fabric_banks * WORDS_PER_BRAM`` words.  Under the ``range``
    policy each group lands in a preferred physical bank (balanced by the
    access graph); under ``interleaved`` a single cursor suffices because
    consecutive words scatter across banks by construction.
    """
    if fabric_policy not in ("interleaved", "range"):
        raise ValueError(
            f"unknown fabric sharding policy {fabric_policy!r} "
            "(expected 'interleaved' or 'range')"
        )
    capacity = fabric_banks * WORDS_PER_BRAM
    for key, bits, need in bram_items:
        if need > WORDS_PER_BRAM:
            raise _allocation_error(
                f"variable {key[0]}.{key[1]} needs {need} words, "
                f"more than one bank holds ({WORDS_PER_BRAM})",
                variable=key[1],
                thread=key[0],
                words_needed=need,
                words_available=WORDS_PER_BRAM,
            )
    total_need = sum(need for __, __b, need in bram_items)
    if total_need > capacity:
        raise _allocation_error(
            f"program needs {total_need} words but a {fabric_banks}-bank "
            f"fabric holds {capacity}",
            words_needed=total_need,
            words_available=capacity,
        )

    groups: dict[str, list[tuple[tuple[str, str], int, int]]] = {}
    for item in sorted(bram_items, key=lambda i: (-i[2], i[0])):
        groups.setdefault(item[0][0], []).append(item)
    ordered_groups = sorted(
        groups.values(),
        key=lambda items: (-sum(i[2] for i in items), items[0][0]),
    )

    def place(key, bits, need, base: int) -> None:
        memory_map.placements[key] = Placement(
            thread=key[0],
            variable=key[1],
            residency=Residency.BRAM,
            bram=FABRIC_BRAM,
            base_address=base,
            words=need,
            bits=bits,
        )

    bank_fill = {bank: 0 for bank in range(fabric_banks)}
    if fabric_policy == "interleaved":
        cursor = 0
        for group in ordered_groups:
            for key, bits, need in group:
                place(key, bits, need, cursor)
                cursor += need
        used = cursor
        for offset in range(used):
            bank_fill[offset % fabric_banks] += 1
    else:  # range: bank = logical // WORDS_PER_BRAM
        if access is not None:
            from ..analysis.memgraph import partition_threads_across_banks

            preferred = partition_threads_across_banks(access, fabric_banks)
        else:
            preferred = {}
        next_bank = 0
        for group in ordered_groups:
            thread = group[0][0][0]
            total = sum(need for __, __b, need in group)
            want = preferred.get(thread)
            if want is None:
                want = next_bank % fabric_banks
                next_bank += 1
            candidates = [want] + [
                b for b in range(fabric_banks) if b != want
            ]
            target = next(
                (
                    b
                    for b in candidates
                    if bank_fill[b] + total <= WORDS_PER_BRAM
                ),
                None,
            )
            if target is not None:
                for key, bits, need in group:
                    base = target * WORDS_PER_BRAM + bank_fill[target]
                    place(key, bits, need, base)
                    bank_fill[target] += need
            else:
                # Oversized group: split item-wise, first-fit over banks.
                for key, bits, need in group:
                    target = next(
                        (
                            b
                            for b in candidates
                            if bank_fill[b] + need <= WORDS_PER_BRAM
                        ),
                        None,
                    )
                    if target is None:
                        raise _allocation_error(
                            f"variable {key[0]}.{key[1]} fits no bank of the "
                            f"{fabric_banks}-bank fabric (range policy "
                            "fragmentation)",
                            variable=key[1],
                            thread=key[0],
                            words_needed=need,
                            words_available=max(
                                WORDS_PER_BRAM - fill
                                for fill in bank_fill.values()
                            ),
                        )
                    base = target * WORDS_PER_BRAM + bank_fill[target]
                    place(key, bits, need, base)
                    bank_fill[target] += need
        used = sum(bank_fill.values())

    memory_map.bram_names.append(FABRIC_BRAM)
    memory_map.bram_fill[FABRIC_BRAM] = used
    memory_map.fabric_banks = fabric_banks
    memory_map.fabric_policy = fabric_policy
    memory_map.fabric_bank_fill = bank_fill


def dependencies_per_bram(
    memory_map: MemoryMap, dependencies: list[Dependency]
) -> dict[str, list[Dependency]]:
    """Group dependencies by the BRAM holding their produced variable.

    The controllers are generated *per BRAM* ("insert memory dependence
    enforcement on a per-BRAM basis", §3), so each BRAM's wrapper guards
    exactly the dependencies whose producer variable it stores.
    """
    grouping: dict[str, list[Dependency]] = {name: [] for name in memory_map.bram_names}
    for dep in dependencies:
        placement = memory_map.placement(dep.producer_thread, dep.producer_var)
        if not placement.is_bram:
            raise ValueError(
                f"dependency {dep.dep_id!r}: producer variable "
                f"{dep.producer_var!r} must be BRAM-resident"
            )
        grouping[placement.bram].append(dep)
    return grouping
