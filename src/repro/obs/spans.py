"""Dependency-lifecycle spans assembled from grant/guard events.

A *span* is one produce-consume cycle of one dependency: the producer's
granted write opens it, each consumer's granted read of the same
dependency attaches to it (with the read's blocked wait), and it closes
when the dependency counter drains to zero (arbitrated / lock baseline)
or when every expected consumer has read (event-driven, where there is
no runtime counter — the static schedule implies completion).

This is the per-dependency occupancy/latency record the paper's §3.1 vs
§3.2 discussion is about: for the arbitrated organization the read waits
inside one span vary with contention; for the event-driven organization
the k-th read lands exactly k cycles after the write, every span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(slots=True)
class ConsumerRead:
    """One granted consumer read inside a span (immutable by convention;
    slotted for cheap construction on the traced hot path)."""

    client: str
    issue_cycle: int
    grant_cycle: int

    @property
    def wait_cycles(self) -> int:
        return self.grant_cycle - self.issue_cycle


@dataclass(slots=True)
class DependencySpan:
    """One produce-consume cycle of one dependency (slotted: one is
    built per granted producer write on the traced hot path)."""

    bram: str
    dep_id: str
    instance: int
    producer: str
    write_cycle: int
    #: cycle the guard armed (CAM match live) — same cycle as the write
    #: for the arbitrated deplist; None for organizations with no guard
    armed_cycle: Optional[int] = None
    reads: list[ConsumerRead] = field(default_factory=list)
    #: reads expected before the span closes (the dependency number)
    expected_reads: Optional[int] = None
    complete_cycle: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.complete_cycle is not None

    @property
    def duration(self) -> Optional[int]:
        """Write-to-drain occupancy, in cycles (None while open)."""
        if self.complete_cycle is None:
            return None
        return self.complete_cycle - self.write_cycle

    @property
    def last_activity(self) -> int:
        cycles = [self.write_cycle] + [r.grant_cycle for r in self.reads]
        if self.complete_cycle is not None:
            cycles.append(self.complete_cycle)
        return max(cycles)

    def post_write_latencies(self) -> list[int]:
        """Per consumer read: cycles elapsed since the opening write —
        the quantity the paper calls (non-)deterministic."""
        return [read.grant_cycle - self.write_cycle for read in self.reads]


class SpanAssembler:
    """Builds :class:`DependencySpan` objects from controller callbacks."""

    def __init__(self) -> None:
        self.spans: list[DependencySpan] = []
        self._active: dict[tuple[str, str], DependencySpan] = {}
        self._instances: dict[tuple[str, str], int] = {}
        #: (bram, dep_id) -> dependency number, filled at attach time
        self.expected: dict[tuple[str, str], int] = {}
        #: keys whose spans close on counter drain, not read count
        self._counter_backed: set[tuple[str, str]] = set()
        #: arm notifications that arrived before their span opened
        #: (guard events fire inside the arbitration cycle, the grant —
        #: which opens the span — is recorded by the base class after)
        self._pending_arm: dict[tuple[str, str], int] = {}

    def open(self, bram: str, dep_id: str, producer: str, cycle: int) -> DependencySpan:
        key = (bram, dep_id)
        # A write while the previous span is still open supersedes it
        # (possible only under faults/recovery); leave the old span
        # incomplete rather than inventing a drain cycle.
        index = self._instances.get(key, 0)
        self._instances[key] = index + 1
        # A guard-arm notification for this write may have arrived during
        # arbitration, before the grant that opens the span (it can lead
        # the grant by a cycle in the lock baseline's protocol).
        armed = self._pending_arm.pop(key, None)
        if armed is not None and armed > cycle:
            armed = None
        # Positional: keyword construction costs measurably per write.
        span = DependencySpan(
            bram, dep_id, index, producer, cycle, armed, [],
            self.expected.get(key),
        )
        self.spans.append(span)
        self._active[key] = span
        return span

    def armed(self, bram: str, dep_id: str, cycle: int) -> None:
        key = (bram, dep_id)
        span = self._active.get(key)
        if (
            span is not None
            and span.armed_cycle is None
            and span.complete_cycle is None
            and cycle >= span.write_cycle
        ):
            span.armed_cycle = cycle
            return
        self._pending_arm[key] = cycle

    def read(
        self, bram: str, dep_id: str, client: str, issue_cycle: int, grant_cycle: int
    ) -> None:
        key = (bram, dep_id)
        span = self._active.get(key)
        if span is None:
            return  # read with no opening write observed (e.g. forced unblock)
        span.reads.append(ConsumerRead(client, issue_cycle, grant_cycle))
        # Organizations without a runtime counter close on the last
        # expected read; counter-backed ones close via `drained`.
        if (
            span.expected_reads is not None
            and span.complete_cycle is None
            and len(span.reads) >= span.expected_reads
            and key not in self._counter_backed
        ):
            span.complete_cycle = grant_cycle

    def drained(self, bram: str, dep_id: str, cycle: int) -> None:
        """The dependency counter reached zero: the span is complete.

        The span stays addressable until the next write opens its
        successor — the grant that performed the final read is recorded
        *after* the drain notification within the same arbitration call,
        and the lock baseline's grant trails by a full protocol cycle.
        """
        span = self._active.get((bram, dep_id))
        if span is not None and span.complete_cycle is None:
            span.complete_cycle = cycle

    def mark_counter_backed(self, bram: str, dep_id: str) -> None:
        """Declare that (bram, dep_id) has a runtime counter, so spans
        close on :meth:`drained` rather than on read count."""
        self._counter_backed.add((bram, dep_id))

    # -- aggregate views --------------------------------------------------------------

    def complete_spans(self) -> list[DependencySpan]:
        return [span for span in self.spans if span.complete]

    def by_dependency(self) -> dict[tuple[str, str], list[DependencySpan]]:
        grouped: dict[tuple[str, str], list[DependencySpan]] = {}
        for span in self.spans:
            grouped.setdefault((span.bram, span.dep_id), []).append(span)
        return grouped

    def wait_statistics(self) -> dict[tuple[str, str], dict]:
        """(bram, dep_id) -> summary of read waits across all spans."""
        out: dict[tuple[str, str], dict] = {}
        for key, spans in sorted(self.by_dependency().items()):
            waits: list[int] = []
            post: list[int] = []
            complete = 0
            for span in spans:
                if span.complete_cycle is not None:
                    complete += 1
                write = span.write_cycle
                for read in span.reads:
                    waits.append(read.grant_cycle - read.issue_cycle)
                    post.append(read.grant_cycle - write)
            out[key] = {
                "spans": len(spans),
                "complete": complete,
                "reads": len(waits),
                "wait_min": min(waits) if waits else None,
                "wait_max": max(waits) if waits else None,
                "wait_mean": (sum(waits) / len(waits)) if waits else None,
                "post_write_min": min(post) if post else None,
                "post_write_max": max(post) if post else None,
                "deterministic_post_write": len(set(post)) <= 1,
                "observed": bool(post),
            }
        return out
