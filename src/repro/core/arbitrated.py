"""The arbitrated memory organization (paper §3.1).

The wrapper adds two ports to a BRAM's native dual ports:

* **port A** — direct access to physical port 0 for "all single cycle
  non-dependent accesses";
* **port B** — remaining standard port, lowest priority on physical port 1;
* **port C** — guarded *consumer read* port: a read is granted only when
  the address's dependency-list entry has outstanding produced data,
  otherwise it blocks ("treated as a waiting request");
* **port D** — *producer write* port, highest priority.

Ports B, C, D share physical port 1 with fixed priority D > C > B, and
multiple thread clients on C (or D) are arbitrated round-robin.  The
dependency list — CAM-matched {dependency number, base address} entries —
implements the guard; each producer write arms the entry with ``dn``
outstanding reads, and the entry disarms when the last consumer has read.

Adding a consumer thread only widens the port-C arbiter and multiplexer
(no FSM changes) — the scalability property the paper credits to this
organization, bought with non-deterministic consumer-read latency.

Semantic note (surfaced by property testing, see
``tests/property/test_prop_controllers.py``): the dependency list counts
*reads*, not readers, so under skewed consumer timing one consumer can
legally take two of the ``dn`` read grants of a produce-consume cycle.
This is faithful to the paper's mechanism; balance relies on the
consumers' run-to-completion loop structure.  The event-driven
organization's slot table rules this out structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memory.bram import BlockRam
from ..memory.deplist import DependencyList
from .arbiter import PriorityArbiter, RoundRobinArbiter
from .cam import ContentAddressableMemory
from .controller import MemRequest, MemResult, MemoryController
from .errors import UnknownPortError


@dataclass
class ArbitratedConfig:
    """Structural parameters of one arbitrated wrapper (sized at design
    time; the RTL generator and area model consume this)."""

    consumer_clients: list[str]
    producer_clients: list[str]
    address_bits: int = 9
    data_bits: int = 36

    @property
    def pseudo_ports(self) -> int:
        """Pseudo-ports multiplexed onto port C (the paper's scaling knob)."""
        return len(self.consumer_clients)


class ArbitratedController(MemoryController):
    """Behavioural model of the arbitrated wrapper around one BRAM."""

    def __init__(
        self,
        bram: BlockRam,
        deplist: DependencyList,
        consumer_clients: list[str],
        producer_clients: list[str],
        port_a_clients: list[str] | None = None,
    ):
        super().__init__(bram)
        self.deplist = deplist
        self.config = ArbitratedConfig(
            consumer_clients=list(consumer_clients),
            producer_clients=list(producer_clients),
            address_bits=deplist.address_bits,
        )
        self._arb_c = RoundRobinArbiter(list(consumer_clients) or ["-"])
        self._arb_d = RoundRobinArbiter(list(producer_clients) or ["-"])
        self._arb_a = RoundRobinArbiter(
            list(port_a_clients) if port_a_clients else ["*any*"]
        )
        self._priority = PriorityArbiter()
        # The CAM mirrors the dependency list's guarded addresses.
        self.cam = ContentAddressableMemory(
            entries=max(1, len(deplist)), key_bits=deplist.address_bits
        )
        for row, entry in enumerate(deplist.entries):
            self.cam.write(row, entry.base_address, entry.dependency_number)
        #: cycles in which a blocked port-C read was overridden by port D
        self.override_count = 0
        #: entry-resolution cache for ``classify_wait``: CAM matches are
        #: static per deplist configuration, so a tagged request's entry
        #: (and its address's sibling set) resolve once per config
        self._wait_cache: dict = {}
        self._wait_cache_version = -1

    # -- policy ---------------------------------------------------------------------

    def _arbitrate_cycle(
        self, requests: list[MemRequest], cycle: int
    ) -> dict[str, MemResult]:
        results: dict[str, MemResult] = {}

        by_port: dict[str, list[MemRequest]] = {"A": [], "B": [], "C": [], "D": []}
        for request in requests:
            if request.port not in by_port:
                raise UnknownPortError(
                    f"unknown wrapper port {request.port!r}",
                    bram=self.bram.name,
                    client=request.client,
                    cycle=cycle,
                )
            by_port[request.port].append(request)

        # Physical port 0: direct port-A access.  The design-time schedule
        # should not double-book it; if it does, serve one per cycle,
        # round-robin so no client is starved by a lexicographic tie-break.
        if by_port["A"]:
            requesting = {r.client for r in by_port["A"]}
            for client in sorted(requesting - set(self._arb_a.clients)):
                self._arb_a.clients.append(client)
            winner = self._arb_a.grant(requesting)
            chosen = next(r for r in by_port["A"] if r.client == winner)
            results[chosen.client] = self._perform(chosen)

        # Physical port 1: priority D > C > B among *grantable* requests.
        d_allowed = [
            r
            for r in by_port["D"]
            if self.deplist.producer_write_allowed(r.address, r.client, r.dep_id)
        ]
        c_allowed = [
            r
            for r in by_port["C"]
            if self.deplist.consumer_read_allowed(r.address, r.client, r.dep_id)
        ]
        # Port B is only served when ports C and D are idle (no requests at
        # all, granted or blocked): "as long as there are no current
        # requests on port C or D".
        b_allowed = (
            by_port["B"] if not by_port["C"] and not by_port["D"] else []
        )

        port_classes: set[str] = set()
        if d_allowed:
            port_classes.add("D")
        if c_allowed:
            port_classes.add("C")
        if b_allowed:
            port_classes.add("B")
        selected = self._priority.select(port_classes)

        if selected == "D":
            winner = self._arb_d.grant({r.client for r in d_allowed})
            request = next(r for r in d_allowed if r.client == winner)
            results[request.client] = self._perform(request)
            self.deplist.note_producer_write(request.address, request.client, request.dep_id)
            # Arming flips guard predicates (outstanding 0 -> dn), so
            # cached wait classifications may be stale.
            self.classify_epoch += 1
            if self.observer is not None:
                entry = self.deplist.match_for_write(
                    request.address, request.client, request.dep_id
                )
                self.observer.on_dep_armed(
                    self.bram.name,
                    entry.dep_id if entry is not None else request.dep_id,
                    request.client,
                    request.address,
                    cycle,
                    entry.outstanding if entry is not None else 0,
                )
            if by_port["C"]:
                # A waiting (blocked) port-C read was overridden (§3.1).
                self.override_count += 1
                if self.observer is not None:
                    self.observer.on_override(self.bram.name, cycle)
        elif selected == "C":
            winner = self._arb_c.grant({r.client for r in c_allowed})
            request = next(r for r in c_allowed if r.client == winner)
            results[request.client] = self._perform(request)
            # A read whose address no longer matches any entry (possible
            # only if the list's configuration was upset at runtime) is a
            # plain read of whatever the BRAM holds: nothing to decrement.
            entry = self.deplist.match_for_read(
                request.address, request.client, request.dep_id
            )
            if entry is not None:
                self.deplist.note_consumer_read(
                    request.address, request.client, request.dep_id
                )
                if entry.outstanding == 0:
                    # Only the boundary transition (1 -> 0) can change a
                    # guard predicate — ``outstanding > 0`` and
                    # ``all(== 0)`` are blind to mid-range decrements —
                    # so only it invalidates cached classifications.
                    self.classify_epoch += 1
                if self.observer is not None:
                    self.observer.on_dep_decrement(
                        self.bram.name,
                        entry.dep_id,
                        request.client,
                        request.address,
                        cycle,
                        entry.outstanding,
                    )
        elif selected == "B":
            chosen = min(b_allowed, key=lambda r: r.client)
            results[chosen.client] = self._perform(chosen)

        return results

    # -- quiescence (fast-kernel wake contract) ---------------------------------------

    def next_wake(self, cycle: int):
        """Quiescent unless some re-asserted blocked request is grantable.

        Every piece of mutable wrapper state (deplist counters, CAM
        mirror, round-robin pointers, override count) moves only when a
        request is *granted*; arbitration itself is combinational.  So
        with only the current blocked set re-asserted, re-running
        ``_arbitrate_cycle`` is a no-op exactly when no blocked request
        passes its guard — the same grantability rules as the policy:

        * port A always grants one requester per cycle;
        * port D grants when the producer write is allowed;
        * port C grants when the consumer read is allowed;
        * port B grants only while ports C and D have no requests at all.
        """
        ports = {"A": [], "B": [], "C": [], "D": []}
        for request in self._ungranted.values():
            ports[request.port].append(request)
        if ports["A"]:
            return cycle + 1
        for request in ports["D"]:
            if self.deplist.producer_write_allowed(
                request.address, request.client, request.dep_id
            ):
                return cycle + 1
        for request in ports["C"]:
            if self.deplist.consumer_read_allowed(
                request.address, request.client, request.dep_id
            ):
                return cycle + 1
        if ports["B"] and not ports["C"] and not ports["D"]:
            return cycle + 1
        return None

    # -- wait attribution (profiler seam) ----------------------------------------------

    def classify_wait(self, request: MemRequest) -> tuple[str, str, str]:
        """Mirror of the §3.1 grantability rules (see ``next_wake``):

        * a blocked port-D write whose guard *disallows* it is waiting
          for the previous round to drain → ``guard-stall``;
        * a blocked port-C read whose guard disallows it is waiting for
          the producer's data → ``blocked-read``;
        * everything else (port A mux loss, allowed-but-unserved C/D,
          port B yielding to C/D traffic) lost arbitration.

        Entry resolution goes through :attr:`_wait_cache` — matches
        depend only on the deplist *configuration*, so they are
        re-derived only when ``config_version`` moves (a corruption
        fault); the per-call work is just the counter predicates.
        Untagged port-C reads prefer an armed entry, which makes their
        resolution state-dependent — they take the uncached path.
        """
        site = self.bram.name
        port = request.port
        if port == "D" or (port == "C" and request.dep_id is not None):
            version = self.deplist.config_version
            if version != self._wait_cache_version:
                self._wait_cache_version = version
                self._wait_cache.clear()
            key = (request.client, port, request.address, request.dep_id)
            cached = self._wait_cache.get(key)
            if cached is None:
                if port == "D":
                    cached = (
                        self.deplist.match_for_write(
                            request.address, request.client, request.dep_id
                        ),
                        tuple(self.deplist.matches(request.address)),
                    )
                else:
                    cached = (
                        self.deplist.match_for_read(
                            request.address, request.client, request.dep_id
                        ),
                        (),
                    )
                self._wait_cache[key] = cached
            entry, siblings = cached
            if port == "D":
                # producer_write_allowed: a matching entry must exist
                # and every sibling on the address must be drained.
                if entry is None or any(e.outstanding for e in siblings):
                    return ("guard-stall", site, port)
            elif entry is not None and entry.outstanding == 0:
                # consumer_read_allowed: unguarded reads grant
                # defensively; a guarded one needs outstanding data.
                return ("blocked-read", site, port)
            return ("arbitration-loss", site, port)
        if port == "C" and not self.deplist.consumer_read_allowed(
            request.address, request.client, request.dep_id
        ):
            return ("blocked-read", site, port)
        return ("arbitration-loss", site, port)

    # -- watchdog recovery tap --------------------------------------------------------

    def force_unblock(self, request: MemRequest, cycle: int) -> bool:
        """Break-dependency recovery: force the stuck deplist entry into a
        state that lets ``request`` proceed next cycle.

        * a blocked consumer read is unstuck by force-arming its entry with
          one outstanding read (the data is whatever the BRAM holds);
        * a blocked producer write is unstuck by draining every armed
          sibling entry on the address (the unconsumed data is dropped).

        Both are *degradations*: legal traffic may now observe stale or
        skipped values — the watchdog records that alongside the recovery.
        """
        self.classify_epoch += 1
        if request.write:
            armed = [
                e for e in self.deplist.matches(request.address) if e.outstanding
            ]
            for entry in armed:
                entry.outstanding = 0
            return bool(armed)
        entry = self.deplist.match_for_read(
            request.address, request.client, request.dep_id
        )
        if entry is None or entry.outstanding > 0:
            return False
        entry.outstanding = 1
        return True

    def reset(self) -> None:
        super().reset()
        self.deplist.reset()
        self._arb_c.reset()
        self._arb_d.reset()
        self._arb_a.reset()
        self.override_count = 0
