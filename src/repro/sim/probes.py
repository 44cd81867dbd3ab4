"""Measurement probes over simulation runs.

The probes turn controller latency samples and interface counters into the
quantities the paper discusses:

* :class:`ConsumerLatencyProbe` — per-consumer wait distribution after each
  producer write (the §3.1 non-determinism vs the §3.2 guarantee);
* :func:`determinism_report` — summarizes whether post-write latencies are
  fixed, per dependency and consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, pstdev

from ..core.controller import ControllerStats, MemoryController


@dataclass
class ConsumerLatencySummary:
    """Wait statistics of one consumer thread on one dependency."""

    thread: str
    dep_id: str
    waits: list[int]

    @property
    def deterministic(self) -> bool:
        return len(set(self.waits)) <= 1

    @property
    def mean_wait(self) -> float:
        return mean(self.waits) if self.waits else 0.0

    @property
    def max_wait(self) -> int:
        return max(self.waits) if self.waits else 0

    @property
    def jitter(self) -> float:
        """Population standard deviation of the wait — zero iff deterministic."""
        return pstdev(self.waits) if len(self.waits) > 1 else 0.0


@dataclass
class ConsumerLatencyProbe:
    """Extracts per-consumer guarded-read waits from a controller."""

    controller: MemoryController
    guarded_ports: tuple[str, ...] = ("C", "B")

    def summaries(self) -> list[ConsumerLatencySummary]:
        """Per-consumer wait summaries of every consumer that read."""
        grouped: dict[tuple[str, str], list[int]] = {}
        for sample in self.controller.latency_samples:
            if sample.port not in self.guarded_ports or sample.dep_id is None:
                continue
            key = (sample.client, sample.dep_id)
            grouped.setdefault(key, []).append(sample.wait_cycles)
        return [
            ConsumerLatencySummary(thread=thread, dep_id=dep_id, waits=waits)
            for (thread, dep_id), waits in sorted(grouped.items())
        ]

    def overall_stats(self) -> ControllerStats:
        waits = [
            s.wait_cycles
            for s in self.controller.latency_samples
            if s.port in self.guarded_ports and s.dep_id is not None
        ]
        return ControllerStats.from_waits(waits)


@dataclass
class PostWriteLatencyProbe:
    """Measures the paper's §3.1/§3.2 quantity directly: the delay from a
    producer's granted write to each consumer's granted read of the same
    dependency.

    "the latency of consumer read accesses once the corresponding producer
    write happens is not deterministic for the arbitrated memory
    organization" — while the event-driven organization fixes it at the
    consumer's compile-time rank in the event chain.
    """

    controller: MemoryController

    def deltas(self) -> dict[tuple[str, str], list[int]]:
        """(consumer, dep_id) -> list of write-to-read latencies (cycles)."""
        samples = sorted(
            (s for s in self.controller.latency_samples if s.dep_id is not None),
            key=lambda s: s.grant_cycle,
        )
        last_write: dict[str, int] = {}
        grouped: dict[tuple[str, str], list[int]] = {}
        for sample in samples:
            is_write = sample.port in ("D",) or (
                sample.port in ("B", "G")
                and sample.client == self._producer_of(sample.dep_id)
            )
            if is_write:
                last_write[sample.dep_id] = sample.grant_cycle
            elif sample.dep_id in last_write:
                key = (sample.client, sample.dep_id)
                grouped.setdefault(key, []).append(
                    sample.grant_cycle - last_write[sample.dep_id]
                )
        return grouped

    def _producer_of(self, dep_id: str) -> str:
        deplist = getattr(self.controller, "deplist", None)
        if deplist is not None:
            return deplist.entry_for(dep_id).producer_thread
        schedule = getattr(self.controller, "schedule", None)
        if schedule is not None:
            for slot in schedule.producer_slots():
                if slot.dep_id == dep_id:
                    return slot.thread
        return ""

    def summaries(self) -> list[ConsumerLatencySummary]:
        return [
            ConsumerLatencySummary(thread=thread, dep_id=dep_id, waits=waits)
            for (thread, dep_id), waits in sorted(self.deltas().items())
        ]

    def all_deterministic(self) -> bool:
        summaries = self.summaries()
        return bool(summaries) and all(s.deterministic for s in summaries)

    def max_jitter(self) -> float:
        summaries = self.summaries()
        if not summaries:
            return 0.0
        return max(s.jitter for s in summaries)


def determinism_report(probe: ConsumerLatencyProbe) -> str:
    """Human-readable summary of consumer-read determinism."""
    lines = []
    for summary in probe.summaries():
        verdict = "deterministic" if summary.deterministic else "variable"
        lines.append(
            f"{summary.thread}/{summary.dep_id}: {verdict}, "
            f"mean {summary.mean_wait:.1f} cycles, "
            f"max {summary.max_wait}, jitter {summary.jitter:.2f}"
        )
    if not lines:
        return "no guarded accesses observed"
    return "\n".join(lines)
