"""Common interface of the generated memory controllers.

Each BRAM gets a wrapper ("memory organization") that mediates thread
accesses.  The cycle protocol, shared by all three implementations
(arbitrated, event-driven, lock baseline):

1. during a cycle, every stalled/issuing thread **submits** its request;
2. the kernel calls :meth:`MemoryController.arbitrate` once per cycle; the
   controller applies its policy, performs granted BRAM accesses, and
   returns per-client results;
3. threads whose request was granted advance; the rest re-submit next
   cycle (the hardware equivalent: the request lines stay asserted).

Controllers also record a latency sample per completed request — the raw
data behind the paper's determinism discussion (§3.1 vs §3.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from ..memory.bram import BlockRam


@dataclass(frozen=True)
class MemRequest:
    """One thread's pending access for the current cycle."""

    client: str
    port: str
    address: int
    write: bool
    data: int = 0
    dep_id: Optional[str] = None

    @property
    def key(self) -> tuple:
        return (self.client, self.port, self.address, self.write)

    @property
    def sort_key(self) -> tuple:
        """Total order over requests — blocked-request diagnostics and
        multi-bank routing iterate in this order so reports render
        identically run to run."""
        return (
            self.client,
            self.port,
            self.address,
            int(self.write),
            self.dep_id or "",
        )

    def __repr__(self) -> str:
        kind = "write" if self.write else "read"
        dep = f" dep={self.dep_id}" if self.dep_id is not None else ""
        return (
            f"MemRequest({self.client}: {kind} @{self.address} "
            f"port {self.port}{dep})"
        )

    def __lt__(self, other: "MemRequest") -> bool:
        if not isinstance(other, MemRequest):
            return NotImplemented
        return self.sort_key < other.sort_key


class MemResult(NamedTuple):
    """Outcome of arbitration for one client."""

    granted: bool
    data: int = 0


class LatencySample(NamedTuple):
    """Completed request with its observed wait."""

    client: str
    port: str
    dep_id: Optional[str]
    issue_cycle: int
    grant_cycle: int

    @property
    def wait_cycles(self) -> int:
        return self.grant_cycle - self.issue_cycle


class BlockedRequest(NamedTuple):
    """A request submitted this cycle that arbitration did not grant —
    the per-controller tap the runtime watchdog reads."""

    request: MemRequest
    issue_cycle: int
    blocked_cycles: int


#: The per-cycle path builds the records above as ``_new(Record,
#: fields)``: ``tuple.__new__`` skips the generated ``__new__``'s
#: argument binding.
_new = tuple.__new__

#: a granted write's result (records are immutable, so one serves all)
_WRITE_GRANT = MemResult(True)


def _request_order(item: tuple) -> tuple:
    return item[1].sort_key


def _first_by_client(requests) -> dict[str, MemRequest]:
    """One request per client, the first in sort order, keyed in client
    order — the per-client view of a blocked set."""
    first: dict[str, MemRequest] = {}
    for request in requests:
        held = first.get(request.client)
        if held is None or request.sort_key < held.sort_key:
            first[request.client] = request
    if len(first) > 1:
        return {client: first[client] for client in sorted(first)}
    return first


#: An injection seam over ``submit``: each tap may pass a request through
#: (possibly rewritten) or return ``None`` to drop it at the port.
RequestTap = Callable[[MemRequest], Optional[MemRequest]]


class MemoryController(abc.ABC):
    """Base class for the per-BRAM memory organizations."""

    def __init__(self, bram: BlockRam):
        self.bram = bram
        self._pending: dict[tuple, MemRequest] = {}
        self._issue_cycle: dict[tuple, int] = {}
        self.latency_samples: list[LatencySample] = []
        self.cycle: int = 0
        #: fault-injection seams applied to every submitted request
        self.request_taps: list[RequestTap] = []
        #: requests left ungranted by the most recent ``arbitrate`` call
        #: (key -> request, unsorted) and that call's cycle; ``blocked``
        #: builds its sorted list from them on first read
        self._ungranted: dict[tuple, MemRequest] = {}
        self._ungranted_cycle = 0
        self._blocked: Optional[list[BlockedRequest]] = None
        #: the same requests indexed by client (first in sort order wins
        #: for a client with several) — the profiler's per-cycle view.
        #: When the blocked membership is unchanged from the previous
        #: cycle (no grants, same pending keys) the *same dict object*
        #: is kept, so observers can use identity as a cheap "nothing
        #: moved" signal; its requests may then be the equal-keyed
        #: objects of an earlier cycle.
        self.blocked_by_client: dict[str, MemRequest] = {}
        self._blocked_keys: set = set()
        #: ``len(self.blocked)``, without building the list (it moves
        #: only with the key set, so it is updated with the view)
        self.blocked_count = 0
        #: telemetry seam (a ``weakref.proxy`` of the
        #: :class:`repro.obs.Telemetry` that holds this controller);
        #: every call site is guarded by ``is not None`` so the disabled
        #: path costs one attribute check
        self.observer = None
        #: separate seam for per-submission notifications — only set for
        #: "full"-level tracing, because submits are the hottest call
        #: site and "deps"-level telemetry derives submission counts
        #: from grants instead (see ``unfinished_request_counts``)
        self.submit_observer = None
        #: classification-cache token (profiler seam): each organization
        #: bumps it exactly where state that its ``hold`` reads mutates
        #: — deplist arm/decrement, slot advance, watchdog recovery,
        #: fault corruption.  A blocked request's classification is
        #: invariant between bumps, so the profiler may reuse it
        #: without re-deriving.
        self.classify_epoch = 0

    # -- cycle protocol ------------------------------------------------------------

    def submit(self, request: MemRequest) -> None:
        """Register a request for this cycle; idempotent across stalls."""
        for tap in self.request_taps:
            tapped = tap(request)
            if tapped is None:
                return  # dropped at the port
            request = tapped
        key = request.key
        self._pending[key] = request
        if key not in self._issue_cycle:
            self._issue_cycle[key] = self.cycle
            # Notify only on the first submission: re-submissions while
            # blocked model the request lines staying asserted, not new
            # requests.
            if self.submit_observer is not None:
                self.submit_observer.on_submit(self.bram.name, request)

    def arbitrate(self, cycle: int) -> dict[str, MemResult]:
        """Apply the organization's policy for one cycle."""
        self.cycle = cycle
        pending = self._pending
        results = self._arbitrate_cycle(list(pending.values()), cycle)
        if results:
            issue_cycle = self._issue_cycle
            observer = self.observer
            for key, request in list(pending.items()):
                result = results.get(request.client)
                if result is not None and result.granted:
                    sample = _new(
                        LatencySample,
                        (
                            request.client,
                            request.port,
                            request.dep_id,
                            issue_cycle.pop(key),
                            cycle,
                        ),
                    )
                    self.latency_samples.append(sample)
                    if observer is not None:
                        observer.on_grant(self.bram.name, request, sample)
                    del pending[key]
        # Requests not granted remain pending; threads re-submit anyway.
        self._pending = {}
        self._leave_ungranted(pending, cycle)
        return results

    def _leave_ungranted(self, requests: dict, cycle: int) -> None:
        """Record the requests ``arbitrate`` left ungranted at ``cycle``
        (key -> request), which ``blocked`` sorts when first read.

        A request key fixes every classification-relevant field, and a
        client can only change the request behind a key after a grant
        empties its old key out of this set — so an unchanged ungranted
        key set means the per-client view from last cycle is still
        equivalent.  Keep the same object: identity is the observers'
        "nothing moved" signal (grants of never-blocked requests don't
        disturb it)."""
        self._ungranted = requests
        self._ungranted_cycle = cycle
        self._blocked = None
        if requests.keys() != self._blocked_keys:
            self.blocked_by_client = _first_by_client(requests.values())
            self._blocked_keys = set(requests)
            self.blocked_count = len(requests)

    @property
    def blocked(self) -> list[BlockedRequest]:
        """Requests left ungranted by the most recent ``arbitrate`` call,
        in request sort order, aged at that call's cycle.  Built on
        first read; every later read until the next call returns the
        same list."""
        blocked = self._blocked
        if blocked is None:
            cycle = self._ungranted_cycle
            issue_cycle = self._issue_cycle
            blocked = self._blocked = [
                _new(
                    BlockedRequest,
                    (request, issue_cycle[key], cycle - issue_cycle[key]),
                )
                for key, request in sorted(
                    self._ungranted.items(), key=_request_order
                )
            ]
        return blocked

    def blocked_ages(self) -> list[tuple[tuple, int, int]]:
        """``(request key, issue cycle, blocked cycles)`` of every
        request in ``blocked``, unsorted and without building the list."""
        cycle = self._ungranted_cycle
        ages = []
        for key in self._ungranted:
            issue_cycle = self._issue_cycle[key]
            ages.append((key, issue_cycle, cycle - issue_cycle))
        return ages

    @abc.abstractmethod
    def _arbitrate_cycle(
        self, requests: list[MemRequest], cycle: int
    ) -> dict[str, MemResult]:
        """Policy hook: grant a subset of ``requests`` and perform their
        BRAM accesses."""

    # -- common helpers ------------------------------------------------------------

    def _perform(self, request: MemRequest) -> MemResult:
        """Execute a granted access against the BRAM."""
        if request.write:
            self.bram.write(request.address, request.data)
            return _WRITE_GRANT
        value = self.bram.read(request.address)
        return _new(MemResult, (True, value))

    def force_unblock(self, request: MemRequest, cycle: int) -> bool:
        """Watchdog recovery seam: clear whatever state is holding
        ``request`` back, recording nothing.  Returns True if the
        organization could do anything; the base class cannot."""
        return False

    # -- the grant rule (profiler and fast-kernel seams) --------------------------

    def hold(self, request: MemRequest) -> Optional[str]:
        """The organization's grant rule, stated once: the wait state
        that stops blocked ``request`` from being granted at the next
        arbitration, or ``None`` when that arbitration could grant it
        (it may still lose).

        A state is one of the :data:`repro.obs.attribution.WAIT_STATES`
        strings (plain literals here: ``repro.obs`` imports this module,
        not the other way round).  The base rule holds nothing.
        ``classify_wait`` and ``next_wake`` both read this rule, so it
        must not depend on the order of the blocked requests.
        """
        return None

    def classify_wait(self, request: MemRequest) -> tuple[str, str, str]:
        """Attribute one blocked cycle of ``request`` to a wait state.

        Returns ``(state, site, port)``: the request's ``hold``, or
        ``arbitration-loss`` for a request the rule would let through,
        at this controller.
        """
        return (
            self.hold(request) or "arbitration-loss",
            self.bram.name,
            request.port,
        )

    # -- quiescence (fast-kernel wake contract) -------------------------------------

    def next_wake(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which arbitrating this controller
        could differ from doing nothing, assuming its clients re-assert
        exactly the requests currently in ``self.blocked`` and submit no
        new ones.

        ``None`` means *quiescent*: the controller's observable state
        (grants, counters, arbiter pointers) provably cannot change
        until a new request arrives, so the fast kernel may skip it for
        any number of cycles.  A controller's state moves only when it
        grants, so it wakes next cycle exactly when some blocked request
        has no ``hold``.  Organizations whose state moves with time
        rather than with grants override this.  Returned cycles must be
        ``> cycle``.
        """
        hold = self.hold
        for request in self._ungranted.values():
            if hold(request) is None:
                return cycle + 1
        return None

    def note_idle_cycles(self, cycle: int) -> None:
        """Fast-kernel seam: the kernel skipped straight past a quiescent
        stretch and ``cycle`` is the last cycle it did *not* arbitrate.
        On a quiescent controller ``arbitrate`` only tracks the current
        cycle (which stamps the issue cycles of later submissions), so
        catching ``self.cycle`` up is exactly the skipped no-op work.
        """
        self.cycle = cycle

    # -- statistics -----------------------------------------------------------------

    def unfinished_request_counts(self) -> dict[str, int]:
        """Per-port count of requests submitted but never granted (their
        issue cycles are still outstanding).  With the grant count this
        reconstructs the number of distinct submissions: every first
        submission either grants eventually or leaves its entry here."""
        counts: dict[str, int] = {}
        for key in self._issue_cycle:
            port = key[1]
            counts[port] = counts.get(port, 0) + 1
        return counts

    def waits_for(self, port: Optional[str] = None) -> list[int]:
        """Observed wait cycles, optionally of one port only."""
        return [
            s.wait_cycles
            for s in self.latency_samples
            if port is None or s.port == port
        ]


@dataclass
class ControllerStats:
    """Aggregate latency statistics for reporting."""

    count: int
    min_wait: int
    max_wait: int
    mean_wait: float

    @classmethod
    def from_waits(cls, waits: list[int]) -> "ControllerStats":
        if not waits:
            return cls(0, 0, 0, 0.0)
        return cls(
            count=len(waits),
            min_wait=min(waits),
            max_wait=max(waits),
            mean_wait=sum(waits) / len(waits),
        )

    @property
    def deterministic(self) -> bool:
        """All observed waits identical — the §3.2 guarantee."""
        return self.count == 0 or self.min_wait == self.max_wait
