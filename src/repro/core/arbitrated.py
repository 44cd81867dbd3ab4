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

from typing import Optional

from ..memory.bram import BlockRam
from ..memory.deplist import DependencyList
from .arbiter import RoundRobinArbiter
from .controller import MemRequest, MemResult, MemoryController
from .errors import UnknownPortError


class ArbitratedController(MemoryController):
    """Behavioural model of the arbitrated wrapper around one BRAM."""

    def __init__(
        self,
        bram: BlockRam,
        deplist: DependencyList,
        consumer_clients: list[str],
        producer_clients: list[str],
    ):
        super().__init__(bram)
        self.deplist = deplist
        self._arb_c = RoundRobinArbiter(list(consumer_clients) or ["-"])
        self._arb_d = RoundRobinArbiter(list(producer_clients) or ["-"])
        # port A's clients join on their first request
        self._arb_a = RoundRobinArbiter(["*any*"])
        #: cycles in which a blocked port-C read was overridden by port D
        self.override_count = 0

    # -- policy ---------------------------------------------------------------------

    def _arbitrate_cycle(
        self, requests: list[MemRequest], cycle: int
    ) -> dict[str, MemResult]:
        results: dict[str, MemResult] = {}

        port_a: list[MemRequest] = []
        port_b: list[MemRequest] = []
        port_c: list[MemRequest] = []
        port_d: list[MemRequest] = []
        for request in requests:
            port = request.port
            if port == "A":
                port_a.append(request)
            elif port == "C":
                port_c.append(request)
            elif port == "D":
                port_d.append(request)
            elif port == "B":
                port_b.append(request)
            else:
                raise UnknownPortError(
                    f"unknown wrapper port {port!r}",
                    bram=self.bram.name,
                    client=request.client,
                    cycle=cycle,
                )

        # Physical port 0: direct port-A access.  The design-time schedule
        # should not double-book it; if it does, serve one per cycle,
        # round-robin so no client is starved by a lexicographic tie-break.
        if port_a:
            requesting = {r.client for r in port_a}
            clients = self._arb_a.clients
            if not requesting.issubset(clients):
                clients.extend(sorted(requesting.difference(clients)))
            winner = self._arb_a.grant(requesting)
            chosen = next(r for r in port_a if r.client == winner)
            results[chosen.client] = self._perform(chosen)

        # Physical port 1: priority D > C > B among *grantable* requests.
        deplist = self.deplist
        d_allowed = [
            r
            for r in port_d
            if deplist.producer_write_allowed(r.address, r.client, r.dep_id)
        ]
        c_allowed = [
            r
            for r in port_c
            if deplist.consumer_read_allowed(r.address, r.client, r.dep_id)
        ]
        # Port B is only served when ports C and D are idle (no requests at
        # all, granted or blocked): "as long as there are no current
        # requests on port C or D".
        b_allowed = port_b if not port_c and not port_d else []

        if d_allowed:
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
            if port_c:
                # A waiting (blocked) port-C read was overridden (§3.1).
                self.override_count += 1
                if self.observer is not None:
                    self.observer.on_override(self.bram.name, cycle)
        elif c_allowed:
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
        elif b_allowed:
            chosen = min(b_allowed, key=lambda r: r.client)
            results[chosen.client] = self._perform(chosen)

        return results

    # -- the grant rule -----------------------------------------------------------------

    def hold(self, request: MemRequest) -> Optional[str]:
        """The §3.1 rule, with the guard predicates ``_arbitrate_cycle``
        grants by:

        * port A grants one requester every cycle;
        * a port-D write waits for its guard (the previous round has
          drained) → ``guard-stall``;
        * a port-C read waits for its guard (the producer has written)
          → ``blocked-read``;
        * port B yields while port C or D has requests →
          ``arbitration-loss``.

        Every piece of wrapper state (deplist counters, round-robin
        pointers, override count) moves only on a grant, so a wrapper
        whose blocked requests are all held is quiescent.
        """
        port = request.port
        if port == "D":
            if not self.deplist.producer_write_allowed(
                request.address, request.client, request.dep_id
            ):
                return "guard-stall"
        elif port == "C":
            if not self.deplist.consumer_read_allowed(
                request.address, request.client, request.dep_id
            ):
                return "blocked-read"
        elif port == "B":
            for other in self._ungranted.values():
                if other.port == "C" or other.port == "D":
                    return "arbitration-loss"
        return None

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
