"""The per-BRAM dependency list of the arbitrated memory organization.

Section 3.1: "the dependency list ... is populated at configuration time
since they are determined at design time using static analysis.  Each entry
in the list has two parts.  The first part contains a dependency number,
which is the number of threads that are dependent on this producer ...  The
second part of the entry is the base address of the data structure in BRAM."

A CAM-like structure compares an incoming address against all entries in
parallel; :meth:`DependencyList.matches` is that comparison.  This module
holds the *static configuration* (built from the allocation) and the
*runtime counters* used by the behavioural controller model.  Area and
timing do not come from here: the RTL generator prices the CAM and the
counters from its own ``WrapperParams``, ``CamRow`` and ``COUNTER_BITS``.

Granularity note: the guard covers the *base address* of the produced data
structure — "this is the address that consumer threads will provide to
read the data" — so for multi-word data only the base-word transaction is
guarded; follow-on words are plain accesses, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hic.pragmas import Dependency
from .allocation import MemoryMap


@dataclass
class DependencyEntry:
    """One configured entry: a guarded producer address.

    Attributes:
        dep_id: The source dependency identifier (diagnostics only; the
            hardware stores just dn and the address).
        dependency_number: ``dn`` — consumer reads expected per write.
        base_address: The guarded word address in the BRAM.
        producer_thread: Thread allowed to write through port D.
        consumer_threads: Threads allowed to read through port C.
    """

    dep_id: str
    dependency_number: int
    base_address: int
    producer_thread: str
    consumer_threads: tuple[str, ...]

    #: Runtime: outstanding consumer reads before the guard re-arms.
    #: Zero means "no valid data": consumers block, producer may write.
    outstanding: int = 0


@dataclass
class DependencyList:
    """The dependency list attached to one BRAM wrapper."""

    bram: str
    entries: list[DependencyEntry] = field(default_factory=list)
    #: bumped whenever the *configuration* (not the runtime counters)
    #: changes — i.e. on :meth:`corrupt` — so entry-resolution caches
    #: can tell when CAM matches may have moved
    config_version: int = 0
    #: the CAM memo: the entries guarding an address, and those of them
    #: a thread writes or reads, as of ``_memo_version``
    _guarding: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _writers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _readers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _memo_version: int = field(
        default=0, init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        bram: str,
        dependencies: list[Dependency],
        memory_map: MemoryMap,
    ) -> "DependencyList":
        """Populate the list from resolved dependencies (configuration time)."""
        entries = []
        for dep in dependencies:
            placement = memory_map.placement(dep.producer_thread, dep.producer_var)
            if placement.bram != bram:
                raise ValueError(
                    f"dependency {dep.dep_id!r} belongs to BRAM "
                    f"{placement.bram!r}, not {bram!r}"
                )
            entries.append(
                DependencyEntry(
                    dep_id=dep.dep_id,
                    dependency_number=dep.dependency_number,
                    base_address=placement.base_address,
                    producer_thread=dep.producer_thread,
                    consumer_threads=dep.consumer_threads(),
                )
            )
        return cls(bram=bram, entries=entries)

    def __len__(self) -> int:
        return len(self.entries)

    def clone(self) -> "DependencyList":
        """A fresh runtime instance of this configuration.

        Controllers mutate their entries' ``outstanding`` counters, so a
        compiled design's deplist must be cloned per simulation — two
        simulations built from one design must not share guard state.
        """
        return DependencyList(
            bram=self.bram,
            entries=[replace(entry, outstanding=0) for entry in self.entries],
        )

    # -- the CAM match ------------------------------------------------------------
    #
    # The configuration moves only through ``corrupt``, so each lookup
    # below is a function of (address) or (address, thread) until
    # ``config_version`` moves: the memo keeps the candidate tuples and
    # the runtime counters are read fresh on every call.

    def _forget(self) -> None:
        """Drop the memo after the configuration moved."""
        self._guarding.clear()
        self._writers.clear()
        self._readers.clear()
        self._memo_version = self.config_version

    def match(self, address: int) -> DependencyEntry | None:
        """CAM lookup: the first entry guarding ``address``, or None.

        Multiple dependencies may guard the same address ("multiple
        producer-consumer dependencies on a single address", §3.1) — use
        :meth:`match_for_write` / :meth:`match_for_read` when the
        requesting thread is known to pick the right one.
        """
        found = self.matches(address)
        return found[0] if found else None

    def matches(self, address: int) -> tuple[DependencyEntry, ...]:
        """All entries guarding ``address``, in list order."""
        if self._memo_version != self.config_version:
            self._forget()
        found = self._guarding.get(address)
        if found is None:
            found = self._guarding[address] = tuple(
                e for e in self.entries if e.base_address == address
            )
        return found

    def match_for_write(
        self,
        address: int,
        producer_thread: str,
        dep_id: str | None = None,
    ) -> DependencyEntry | None:
        """The entry a given producer's write arms.

        Per §3.1, each producer carries its own dependency number with the
        write ("we store the associated dependency number in each producer
        thread"), so a tagged write selects its entry directly; untagged
        writes fall back to the writer's identity."""
        key = (address, producer_thread)
        if self._memo_version != self.config_version:
            self._forget()
        candidates = self._writers.get(key)
        if candidates is None:
            candidates = self._writers[key] = tuple(
                e
                for e in self.matches(address)
                if e.producer_thread == producer_thread
            )
        if dep_id is not None:
            for entry in candidates:
                if entry.dep_id == dep_id:
                    return entry
            return None
        return candidates[0] if candidates else None

    def match_for_read(
        self,
        address: int,
        consumer_thread: str,
        dep_id: str | None = None,
    ) -> DependencyEntry | None:
        """The entry a given consumer's read draws from: a tagged read
        selects its entry; otherwise the entry listing the reader among
        its consumers (preferring an armed one)."""
        key = (address, consumer_thread)
        if self._memo_version != self.config_version:
            self._forget()
        candidates = self._readers.get(key)
        if candidates is None:
            candidates = self._readers[key] = tuple(
                e
                for e in self.matches(address)
                if consumer_thread in e.consumer_threads
            )
        if dep_id is not None:
            for entry in candidates:
                if entry.dep_id == dep_id:
                    return entry
            return None
        for entry in candidates:
            if entry.outstanding > 0:
                return entry
        return candidates[0] if candidates else None

    def entry_for(self, dep_id: str) -> DependencyEntry:
        for entry in self.entries:
            if entry.dep_id == dep_id:
                return entry
        raise KeyError(f"no dependency entry {dep_id!r}")

    # -- fault-injection seam -------------------------------------------------------

    def corrupt(
        self,
        dep_id: str,
        *,
        dependency_number: int | None = None,
        base_address: int | None = None,
    ) -> tuple[int, int]:
        """Overwrite one entry's configuration in place (a configuration
        upset: wrong ``dn`` or wrong guarded address).  Returns the
        original ``(dependency_number, base_address)`` pair so an injector
        can report — or undo — the damage."""
        entry = self.entry_for(dep_id)
        original = (entry.dependency_number, entry.base_address)
        if dependency_number is not None:
            entry.dependency_number = max(0, dependency_number)
        if base_address is not None:
            entry.base_address = base_address
        self.config_version += 1
        return original

    # -- the guard protocol (§3.1 access rules) -----------------------------------

    def consumer_read_allowed(
        self,
        address: int,
        consumer_thread: str | None = None,
        dep_id: str | None = None,
    ) -> bool:
        """Port C rule: a read is granted iff the address is guarded with a
        dependency number greater than zero; otherwise it blocks."""
        if consumer_thread is not None:
            entry = self.match_for_read(address, consumer_thread, dep_id)
        else:
            entry = self.match(address)
        if entry is None:
            # Unguarded addresses are not port-C traffic; grant defensively.
            return True
        return entry.outstanding > 0

    def producer_write_allowed(
        self,
        address: int,
        producer_thread: str | None = None,
        dep_id: str | None = None,
    ) -> bool:
        """Port D rule: a write is allowed iff a matching entry exists and
        the previous produce-consume cycle has completed (counter at zero)."""
        if producer_thread is not None:
            entry = self.match_for_write(address, producer_thread, dep_id)
        else:
            entry = self.match(address)
        if entry is None:
            return False
        # With several dependencies guarding one address, a write must also
        # wait for every *other* entry's consumers: the storage location is
        # shared, so an armed sibling entry means unconsumed data that this
        # write would clobber.
        return all(e.outstanding == 0 for e in self.matches(address))

    def note_producer_write(
        self,
        address: int,
        producer_thread: str | None = None,
        dep_id: str | None = None,
    ) -> None:
        """A granted producer write arms the guard: dn consumer reads may
        now proceed."""
        if producer_thread is not None:
            entry = self.match_for_write(address, producer_thread, dep_id)
        else:
            entry = self.match(address)
        if entry is None:
            raise KeyError(f"no dependency entry guards address {address}")
        entry.outstanding = entry.dependency_number

    def note_consumer_read(
        self,
        address: int,
        consumer_thread: str | None = None,
        dep_id: str | None = None,
    ) -> None:
        """A granted consumer read decrements the outstanding count; at zero
        the produce-consume cycle ends and the address is unguarded until
        the next write."""
        if consumer_thread is not None:
            entry = self.match_for_read(address, consumer_thread, dep_id)
        else:
            entry = self.match(address)
        if entry is None:
            raise KeyError(f"no dependency entry guards address {address}")
        if entry.outstanding <= 0:
            # Local import: repro.core pulls in this module at package
            # initialization, so a top-level import would be circular.
            from ..core.errors import GuardViolationError

            raise GuardViolationError(
                f"consumer read at address {address} with no outstanding "
                "produce-consume cycle",
                bram=self.bram,
                client=consumer_thread,
                dep_id=dep_id or entry.dep_id,
            )
        entry.outstanding -= 1
