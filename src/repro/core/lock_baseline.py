"""Lock-based synchronization baseline.

The paper motivates its memory-centric controllers against the
state-of-practice alternatives: "current shared memory abstractions based
on locks and mutual exclusions are difficult to use, scale, and generally
result in a tedious and error-prone design process" (§1).  To make that
comparison measurable, this controller implements what a designer would
hand-build without the paper's wrappers: a test-and-set lock plus a valid
flag per shared variable, with consumers spinning until data is ready.

Protocol per access (each step costs one cycle, as each is a separate
lock-word/flag/data memory transaction):

* producer write: acquire lock → (spin while consumers outstanding) →
  write data + set valid/count → release;
* consumer read: acquire lock → check valid → if not valid: release and
  spin (re-acquire later); if valid: read data + decrement count → release.

The recorded statistics separate useful transfer cycles from lock/spin
overhead — the quantity the paper's one-cycle guarded ports eliminate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..memory.bram import BlockRam
from ..memory.deplist import DependencyList
from .arbiter import RoundRobinArbiter
from .controller import MemRequest, MemResult, MemoryController


class _JobPhase(enum.Enum):
    ACQUIRE = "acquire"
    ACCESS = "access"
    RELEASE = "release"
    BACKOFF = "backoff"


@dataclass
class _Job:
    """Progress of one client's lock-protocol sequence."""

    request: MemRequest
    phase: _JobPhase = _JobPhase.ACQUIRE
    holds_lock: bool = False
    result_data: int = 0
    spin_cycles: int = 0
    protocol_cycles: int = 0


@dataclass
class LockStats:
    """Overhead accounting for the lock baseline."""

    useful_accesses: int = 0
    protocol_cycles: int = 0
    spin_cycles: int = 0
    failed_probes: int = 0

    @property
    def overhead_per_access(self) -> float:
        if self.useful_accesses == 0:
            return 0.0
        return (self.protocol_cycles + self.spin_cycles) / self.useful_accesses


class LockBaselineController(MemoryController):
    """Behavioural model of hand-built lock-based synchronization.

    Uses the same :class:`DependencyList` configuration as the arbitrated
    wrapper (base addresses + dependency numbers), but enforces it in
    "software" — lock words and flags — instead of guarded ports.
    """

    def __init__(
        self,
        bram: BlockRam,
        deplist: DependencyList,
        clients: list[str],
    ):
        super().__init__(bram)
        self.deplist = deplist
        self._arbiter = RoundRobinArbiter(list(clients) or ["-"])
        self._jobs: dict[str, _Job] = {}
        #: dep base address -> lock holder (None = free)
        self._locks: dict[int, str | None] = {
            entry.base_address: None for entry in deplist.entries
        }
        self.stats = LockStats()

    def _arbitrate_cycle(
        self, requests: list[MemRequest], cycle: int
    ) -> dict[str, MemResult]:
        results: dict[str, MemResult] = {}

        # Port A traffic bypasses the lock protocol entirely.
        port_a = [r for r in requests if r.port == "A"]
        if port_a:
            chosen = min(port_a, key=lambda r: r.client)
            results[chosen.client] = self._perform(chosen)

        # Adopt new guarded requests into jobs.
        guarded = [r for r in requests if r.port != "A"]
        for request in guarded:
            if request.address not in self._locks:
                raise KeyError(
                    f"no lock guards address {request.address} "
                    f"(client {request.client})"
                )
            if request.client not in self._jobs:
                self._jobs[request.client] = _Job(request=request)

        active_clients = {r.client for r in guarded}

        # One lock-word transaction per cycle (single lock memory port):
        # arbitrate among clients that need to touch their lock this cycle.
        contenders = {
            client
            for client, job in self._jobs.items()
            if client in active_clients
        }
        if contenders:
            winner = self._arbiter.grant(contenders)
            for client in contenders:
                job = self._jobs[client]
                if client == winner:
                    done = self._step(job, cycle)
                    if done is not None:
                        results[client] = done
                        del self._jobs[client]
                else:
                    job.spin_cycles += 1
                    self.stats.spin_cycles += 1
        return results

    def _step(self, job: _Job, cycle: int) -> MemResult | None:
        """Advance one job by one protocol cycle; a MemResult means done."""
        address = job.request.address
        entry = self.deplist.match(address)
        assert entry is not None
        job.protocol_cycles += 1
        self.stats.protocol_cycles += 1

        if job.phase is _JobPhase.ACQUIRE:
            holder = self._locks[address]
            if holder is None:
                self._locks[address] = job.request.client
                job.holds_lock = True
                job.phase = _JobPhase.ACCESS
            else:
                job.spin_cycles += 1
                self.stats.spin_cycles += 1
            return None

        if job.phase is _JobPhase.ACCESS:
            if job.request.write:
                # Producer: wait until the previous round is fully consumed.
                if entry.outstanding == 0:
                    self.bram.write(address, job.request.data)
                    entry.outstanding = entry.dependency_number
                    self.classify_epoch += 1
                    job.phase = _JobPhase.RELEASE
                    if self.observer is not None:
                        self.observer.on_dep_armed(
                            self.bram.name,
                            entry.dep_id,
                            job.request.client,
                            address,
                            cycle,
                            entry.outstanding,
                        )
                else:
                    self.stats.failed_probes += 1
                    job.phase = _JobPhase.BACKOFF
            else:
                if entry.outstanding > 0:
                    job.result_data = self.bram.read(address)
                    entry.outstanding -= 1
                    if entry.outstanding == 0:
                        # Guard predicates only see the 1 -> 0 boundary.
                        self.classify_epoch += 1
                    job.phase = _JobPhase.RELEASE
                    if self.observer is not None:
                        self.observer.on_dep_decrement(
                            self.bram.name,
                            entry.dep_id,
                            job.request.client,
                            address,
                            cycle,
                            entry.outstanding,
                        )
                else:
                    self.stats.failed_probes += 1
                    job.phase = _JobPhase.BACKOFF
            return None

        if job.phase is _JobPhase.BACKOFF:
            # Release the lock and go back to spinning on acquire.
            self._locks[address] = None
            job.holds_lock = False
            job.spin_cycles += 1
            self.stats.spin_cycles += 1
            job.phase = _JobPhase.ACQUIRE
            return None

        # RELEASE
        self._locks[address] = None
        job.holds_lock = False
        self.stats.useful_accesses += 1
        return MemResult(granted=True, data=job.result_data)

    # -- the grant rule -----------------------------------------------------------------

    def hold(self, request: MemRequest) -> Optional[str]:
        """The data guard of the lock protocol: a producer whose previous
        value is still unconsumed (``guard-stall``) or a consumer with
        nothing produced (``blocked-read``) waits on the data even while
        it is still churning through lock words.  Any other blocked
        cycle is lock/protocol contention (``arbitration-loss``, the
        overhead the paper's one-cycle guarded ports eliminate); port A
        bypasses the protocol."""
        if request.port == "A":
            return None
        entry = self.deplist.match(request.address)
        if request.write:
            if entry is not None and entry.outstanding > 0:
                return "guard-stall"
        elif entry is None or entry.outstanding == 0:
            return "blocked-read"
        return None

    # -- quiescence (fast-kernel wake contract) ---------------------------------------

    def next_wake(self, cycle: int):
        """Never quiescent while anything is blocked, held or not: every
        contended cycle burns spin counters and advances job phases even
        when no access completes, so the fast kernel must execute
        lock-baseline contention cycle by cycle.  With no blocked
        requests, parked jobs cannot progress (a job only steps while
        its client re-asserts a request) and the controller is
        quiescent.
        """
        return cycle + 1 if self._ungranted else None
