"""Memory access graph.

Section 2 of the paper: the mapping of the logical shared memory onto the
physically distributed on-/off-chip memories "is done based on a memory
access graph and an operation order graph that is generated by the front-end
compiler".  The **memory access graph** is built here: per-variable
weighted access counts and storage sizes, which
:mod:`repro.memory.allocation` reads to place variables.  No allocation
decision reads an operation order, so none is built; each thread's
program order is an edge set of the happens-before graph of
:mod:`repro.analysis.deadlock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hic.semantic import CheckedProgram, SymbolKind
from .usedef import linearize


@dataclass
class MemoryAccessGraph:
    """Variables with weighted access counts.  The allocator's affinity
    unit is the owning thread: variables a thread touches go together."""

    #: (thread, variable) -> weighted access count
    access_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    #: variable -> storage bits
    sizes: dict[tuple[str, str], int] = field(default_factory=dict)

    def variables(self) -> list[tuple[str, str]]:
        return sorted(self.sizes)

    def count(self, thread: str, variable: str) -> int:
        return self.access_counts.get((thread, variable), 0)


def partition_threads_across_banks(
    access: MemoryAccessGraph, num_banks: int
) -> dict[str, int]:
    """Balance thread affinity groups across ``num_banks`` memory banks.

    The fabric allocator keeps the single-BRAM packer's affinity unit (the
    owning thread) but must also spread load: each thread group goes to the
    bank with the least accumulated *weighted access count* so far, heavy
    groups placed first.  Deterministic: ties break on bank index, groups
    order by (-weight, thread name).
    """
    if num_banks <= 0:
        raise ValueError("num_banks must be positive")
    weights: dict[str, int] = {}
    for (thread, __), count in access.access_counts.items():
        weights[thread] = weights.get(thread, 0) + count
    # Threads owning storage but never counted (declared-only) still need
    # a home bank.
    for thread, __ in access.sizes:
        weights.setdefault(thread, 0)

    load = [0] * num_banks
    assignment: dict[str, int] = {}
    for thread in sorted(weights, key=lambda t: (-weights[t], t)):
        bank = min(range(num_banks), key=lambda b: (load[b], b))
        assignment[thread] = bank
        load[bank] += weights[thread]
    return assignment


def build_memory_graphs(checked: CheckedProgram) -> MemoryAccessGraph:
    """Build the memory access graph of a checked program."""
    access = MemoryAccessGraph()

    # Record sizes for every storage-owning symbol.
    for thread_name, scope in checked.scopes.items():
        for name, symbol in scope.symbols.items():
            if symbol.kind in (SymbolKind.SHARED, SymbolKind.CONSTANT):
                continue
            access.sizes[(thread_name, name)] = symbol.storage_bits

    # Shared imports resolve to the producer's storage.
    shared_owner: dict[tuple[str, str], tuple[str, str]] = {}
    for dep in checked.dependencies:
        owner = (dep.producer_thread, dep.producer_var)
        for ref in dep.consumers:
            shared_owner[(ref.thread, dep.producer_var)] = owner

    # Every access to storage, in thread and statement order, each
    # statement's writes before its reads, each by name.
    for thread in checked.program.threads:
        scope = checked.scopes[thread.name]
        for info in linearize(thread):
            for names in (info.defs, info.uses):
                for name in sorted(names):
                    key = _resolve(thread.name, name, scope, shared_owner)
                    if key is not None:
                        _bump(access, key, info.loop_depth)
    return access


def _resolve(
    thread_name: str,
    var_name: str,
    scope,
    shared_owner: dict[tuple[str, str], tuple[str, str]],
) -> tuple[str, str] | None:
    """Map an accessed name to its storage-owning (thread, variable) key.

    Constants have no storage; shared imports resolve to the producer's
    storage location.
    """
    if var_name not in scope.symbols:
        return None
    symbol = scope.symbols[var_name]
    if symbol.kind is SymbolKind.CONSTANT:
        return None
    if symbol.kind is SymbolKind.SHARED:
        return shared_owner.get((thread_name, var_name))
    return (thread_name, var_name)


def _bump(access: MemoryAccessGraph, key: tuple[str, str], loop_depth: int) -> None:
    weight = 4 ** loop_depth
    access.access_counts[key] = access.access_counts.get(key, 0) + weight
