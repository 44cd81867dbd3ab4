"""Cycle-accurate crossbar interconnect between fabric ingress and banks.

Models the interconnect a multi-bank fabric would synthesize: per-bank
output queues fed by the ingress router, a configurable link latency (the
pipeline registers a request crosses between ingress and a bank), and
round-robin output arbitration — each bank accepts up to ``batch_size``
requests per cycle, picked round-robin over requesting clients so no
client starves at a hot bank.

The model is deterministic: queue order is insertion order, eligibility is
``enqueue_cycle + link_latency <= now``, and the per-bank round-robin
pointer advances exactly as the RTL arbiter macro would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.controller import MemRequest


@dataclass
class _InFlight:
    """One request travelling through the crossbar to a bank."""

    request: MemRequest
    enqueue_cycle: int

    def ready_at(self, link_latency: int) -> int:
        return self.enqueue_cycle + link_latency


@dataclass
class CrossbarStats:
    """Aggregate crossbar behaviour for reports and telemetry."""

    forwarded: int = 0
    delivered: int = 0
    #: cycles requests spent queued beyond the pure link latency
    queue_wait_cycles: int = 0
    #: worst simultaneous occupancy of any single bank queue
    queued_peak: int = 0
    per_bank_delivered: dict[int, int] = field(default_factory=dict)


class Crossbar:
    """N-output crossbar with batched, round-robin output arbitration."""

    def __init__(
        self,
        num_banks: int,
        link_latency: int = 1,
        batch_size: int = 1,
    ):
        if num_banks <= 0:
            raise ValueError("crossbar needs at least one output bank")
        if link_latency < 0:
            raise ValueError("link latency cannot be negative")
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self.num_banks = num_banks
        self.link_latency = link_latency
        self.batch_size = batch_size
        self._queues: dict[int, list[_InFlight]] = {
            bank: [] for bank in range(num_banks)
        }
        #: per-bank round-robin pointer over client names
        self._rr_last: dict[int, str] = {}
        self.stats = CrossbarStats()

    def push(self, bank: int, request: MemRequest, cycle: int) -> None:
        """Accept a request at fabric ingress, destined for ``bank``."""
        self._queues[bank].append(_InFlight(request, cycle))
        self.stats.forwarded += 1
        occupancy = len(self._queues[bank])
        if occupancy > self.stats.queued_peak:
            self.stats.queued_peak = occupancy

    def occupancy(self, bank: int) -> int:
        return len(self._queues[bank])

    def next_ready(self, cycle: int):
        """Earliest future cycle at which any queued request becomes
        deliverable (fast-kernel wake contract); ``None`` when empty."""
        ready = None
        for queue in self._queues.values():
            for entry in queue:
                at = max(cycle + 1, entry.ready_at(self.link_latency))
                if ready is None or at < ready:
                    ready = at
        return ready

    def deliveries(self, cycle: int) -> dict[int, list[MemRequest]]:
        """Pop up to ``batch_size`` arrived requests per bank.

        Among entries whose link latency has elapsed, clients are served
        round-robin (starting after the last-granted client); within one
        client, queue order is preserved.
        """
        out: dict[int, list[MemRequest]] = {}
        for bank, queue in self._queues.items():
            eligible = [
                entry
                for entry in queue
                if entry.ready_at(self.link_latency) <= cycle
            ]
            if not eligible:
                continue
            picked = self._pick(bank, eligible)
            for entry in picked:
                queue.remove(entry)
                self.stats.delivered += 1
                self.stats.per_bank_delivered[bank] = (
                    self.stats.per_bank_delivered.get(bank, 0) + 1
                )
                waited = cycle - entry.ready_at(self.link_latency)
                self.stats.queue_wait_cycles += waited
            out[bank] = [entry.request for entry in picked]
        return out

    def _pick(self, bank: int, eligible: list[_InFlight]) -> list[_InFlight]:
        """Round-robin over clients, up to the batch size."""
        clients = sorted({e.request.client for e in eligible})
        last = self._rr_last.get(bank)
        if last is not None and last in clients:
            pivot = clients.index(last) + 1
            clients = clients[pivot:] + clients[:pivot]
        elif last is not None:
            # Rotate past the last grantee's position even if absent now.
            after = [c for c in clients if c > last]
            before = [c for c in clients if c <= last]
            clients = after + before

        picked: list[_InFlight] = []
        by_client: dict[str, list[_InFlight]] = {}
        for entry in eligible:
            by_client.setdefault(entry.request.client, []).append(entry)
        while len(picked) < self.batch_size and clients:
            progressed = False
            for client in list(clients):
                bucket = by_client.get(client)
                if bucket:
                    picked.append(bucket.pop(0))
                    self._rr_last[bank] = client
                    progressed = True
                    if len(picked) >= self.batch_size:
                        break
                else:
                    clients.remove(client)
            if not progressed:
                break
        return picked
