"""The event tracer / telemetry front-end.

One :class:`Telemetry` object attaches to a simulation and becomes the
*observer* of its kernel, controllers, and (if present) watchdog.  All
instrumentation points in the instrumented modules are guarded by an
``if self.observer is not None`` check, so a simulation without telemetry
pays exactly one attribute test per seam — the disabled path is a no-op.

The hot path keeps only plain-dict accumulators and event-tuple
appends, and its per-cycle work is one change scan over the
controllers; the :class:`~repro.obs.metrics.MetricsRegistry` is
materialized from those accumulators by :meth:`Telemetry.finalize`
(idempotent — exporters call it for you).  Everything recorded is a
pure function of the simulation, so a fixed seed yields byte-identical
exports (see :mod:`repro.obs.exporters`).
"""

from __future__ import annotations

import weakref
from collections import defaultdict

from ..core.controller import LatencySample, MemRequest
from .events import EventKind, TraceEvent
from .metrics import MetricsRegistry
from .spans import SpanAssembler

#: Trace verbosity: "deps" records dependency-lifecycle events only;
#: "full" additionally records every grant and submit.
TRACE_LEVELS = ("deps", "full")


class Telemetry:
    """Structured event tracing + metrics over one simulation run.

    Usage::

        sim = build_simulation(design)
        telemetry = Telemetry().attach(sim)
        sim.run(1000)
        trace = dumps_chrome_trace(telemetry)  # exporters return text
        metrics = prometheus_text(telemetry)
    """

    def __init__(
        self,
        *,
        trace_level: str = "deps",
        profile: bool = False,
    ):
        if trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"trace_level must be one of {TRACE_LEVELS}, got {trace_level!r}"
            )
        self.trace_level = trace_level
        self._full = trace_level == "full"
        #: cycle-attribution profiler (``profile=True``); None keeps the
        #: traced hot path free of the per-thread classification work
        self.profiler = None
        #: pre-bound ``profiler.on_cycle`` (set at attach) — the hot
        #: per-cycle dispatch
        self._profiler_on_cycle = None
        if profile:
            from .profiler import CycleProfiler

            self.profiler = CycleProfiler()
        #: the event record: one tuple per event, in TraceEvent field
        #: order (see :meth:`event_records`)
        self._records: list[tuple] = []
        #: TraceEvent objects built from ``_records`` on demand
        self._events: list[TraceEvent] = []
        self.spans = SpanAssembler()
        self.registry = MetricsRegistry()
        self._controllers: dict = {}
        self._executors: dict = {}
        self._tx: dict = {}
        # hot-path accumulators (materialized into the registry lazily)
        #: (bram, dep_id, client) -> guarded grant waits, in grant order
        self._waits: defaultdict[tuple[str, str, str], list[int]] = (
            defaultdict(list)
        )
        #: (bram, port) -> grant waits, in grant order (its length is the
        #: port's grant count)
        self._grant_waits: defaultdict[tuple[str, str], list[int]] = (
            defaultdict(list)
        )
        self._overrides: dict[str, int] = {}
        self._chain_events: dict[tuple[str, str], int] = {}
        self._watchdog: dict[tuple[str, str], int] = {}
        self._fabrics: dict = {}
        #: (fabric, bank, kind) -> cross-bank guarded releases
        self._routed: dict[tuple[str, str, str], int] = {}
        self._recoveries = 0
        self._stats_watch: list = []
        #: one change signature per (bank-expanded) controller:
        #: [controller, last blocked_by_client view, last classify_epoch,
        #: peak simultaneously blocked requests, bram]
        self._sigs: list = []
        self.cycles_observed = 0

    # -- wiring ---------------------------------------------------------------------

    def attach(self, target) -> "Telemetry":
        """Wire into a :class:`repro.flow.Simulation` (or a bare kernel)."""
        kernel = getattr(target, "kernel", target)
        self._controllers = dict(kernel.controllers)
        # A memory fabric fans out to named banks: register each bank as a
        # controller of its own so every event and metric carries the bank
        # label, while the fabric itself keeps the end-to-end view.
        self._fabrics = {
            name: controller
            for name, controller in self._controllers.items()
            if hasattr(controller, "fabric_stats")
        }
        for fabric in self._fabrics.values():
            self._controllers.update(fabric.banks)
        self._executors = dict(kernel.executors)
        self._tx = dict(getattr(target, "tx", {}) or {})
        # This object holds every controller it exports from, so the
        # controllers' seams reach it weakly: a strong seam back would
        # tie each finished run into a reference cycle.  The kernel, its
        # context and the watchdog hold it strongly.
        seam = weakref.proxy(self)
        for controller in self._controllers.values():
            controller.observer = seam
            # The submit seam is the hottest instrumentation point, and
            # at "deps" level its only product (the submission counter)
            # is derivable from grants at finalize time — so only
            # "full"-level tracing pays for the callback.
            if self._full:
                controller.submit_observer = seam
        kernel.observer = self
        kernel.context["telemetry"] = self
        watchdog = kernel.context.get("watchdog")
        if watchdog is not None:
            watchdog.observer = self
        if hasattr(target, "telemetry"):
            target.telemetry = self
        # Hot-path views: the stats objects are stable per executor, so
        # on_cycle can poll them without re-resolving attributes.  Each
        # watch entry is [name, stats, last_rounds_seen] — a mutable
        # slot, cheaper than a dict lookup per cycle.
        self._stats_watch = [
            [name, executor.stats, executor.stats.rounds_completed]
            for name, executor in self._executors.items()
        ]
        self._sigs = [
            [controller, None, -1, 0, bram]
            for bram, controller in self._controllers.items()
        ]
        if self.profiler is not None:
            # The profiler classifies against *top-level* controllers
            # only (a fabric classifies on behalf of its banks), so it
            # binds to the kernel, not to this object's bank-expanded
            # registry.  The pre-bound method saves two attribute loads
            # per cycle.
            self.profiler.bind(kernel)
            self._profiler_on_cycle = self.profiler.on_cycle
        self._discover_dependencies()
        return self

    def _discover_dependencies(self) -> None:
        """Learn each dependency's expected read count (and whether it is
        counter-backed) from the attached controllers' configuration."""
        for bram, controller in self._controllers.items():
            deplist = getattr(controller, "deplist", None)
            if deplist is not None:
                for entry in deplist.entries:
                    self.spans.expected[(bram, entry.dep_id)] = (
                        entry.dependency_number
                    )
                    self.spans.mark_counter_backed(bram, entry.dep_id)
                continue
            channel_dep = getattr(controller, "channel_dependency", None)
            if channel_dep is not None:
                # FIFO-lowered channel: spans are counter-backed by the
                # channel occupancy (drained == empty), one expected read
                # per produced value.
                self.spans.expected[(bram, channel_dep.dep_id)] = (
                    channel_dep.dependency_number
                )
                self.spans.mark_counter_backed(bram, channel_dep.dep_id)
                continue
            schedule = getattr(controller, "schedule", None)
            if schedule is not None:
                counts: dict[str, int] = {}
                for slot in schedule.slots:
                    if slot.kind.name == "CONSUMER":
                        counts[slot.dep_id] = counts.get(slot.dep_id, 0) + 1
                for dep_id, count in counts.items():
                    self.spans.expected[(bram, dep_id)] = count

    # -- the event record -------------------------------------------------------------

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event, in kernel order.

        Built from :meth:`event_records` on first access and extended as
        the record grows: the callbacks append plain tuples, which cost
        a fraction of an object to build and which the cyclic garbage
        collector stops scanning after one pass."""
        records = self._records
        events = self._events
        if len(events) < len(records):
            events.extend(
                TraceEvent(*record) for record in records[len(events):]
            )
        return events

    def event_records(self) -> list[tuple]:
        """The raw event record (read-only by convention): one tuple per
        event, ``(cycle, kind, source, client, port, address, dep_id,
        value, detail)`` — :class:`TraceEvent`'s fields, in order."""
        return self._records

    def _record(
        self, cycle, kind, source, client=None, port=None, address=None,
        dep_id=None, value=None, detail=None,
    ) -> None:
        """Append one event (the rarely-hit callbacks; the hot ones
        append their tuples inline)."""
        self._records.append(
            (cycle, kind, source, client, port, address, dep_id, value, detail)
        )

    # -- controller observer callbacks -------------------------------------------------

    def on_submit(self, bram: str, request: MemRequest) -> None:
        # Only wired up at "full" level (see attach): one SUBMIT event
        # per distinct request.
        self._records.append(
            (
                self._controllers[bram].cycle, EventKind.SUBMIT, bram,
                request.client, request.port, request.address,
                request.dep_id, None, None,
            )
        )

    def on_grant(self, bram: str, request: MemRequest, sample: LatencySample) -> None:
        # Inline `sample.wait_cycles`: a property call per grant is
        # measurable on the traced hot path.
        issue_cycle = sample.issue_cycle
        grant_cycle = sample.grant_cycle
        wait = grant_cycle - issue_cycle
        self._grant_waits[bram, request.port].append(wait)
        dep_id = request.dep_id
        if dep_id is not None:
            client = request.client
            self._waits[bram, dep_id, client].append(wait)
            if request.write:
                self.spans.open(bram, dep_id, client, grant_cycle)
            else:
                self.spans.read(bram, dep_id, client, issue_cycle, grant_cycle)
        # Grant TraceEvents only at "full" level: at "deps" level the
        # dependency lifecycle is already captured by the span assembler
        # and the guard events, and skipping the per-grant event object
        # keeps the traced hot path inside the overhead budget.
        if self._full:
            self._records.append(
                (
                    grant_cycle, EventKind.GRANT, bram, request.client,
                    request.port, request.address, dep_id, wait, None,
                )
            )

    def on_dep_armed(
        self, bram: str, dep_id: str, client: str, address: int,
        cycle: int, outstanding: int,
    ) -> None:
        self.spans.armed(bram, dep_id, cycle)
        self._records.append(
            (
                cycle, EventKind.DEP_ARMED, bram, client, None, address,
                dep_id, outstanding, None,
            )
        )

    def on_dep_decrement(
        self, bram: str, dep_id: str, client: str, address: int,
        cycle: int, outstanding: int,
    ) -> None:
        records = self._records
        records.append(
            (
                cycle, EventKind.DEP_DECREMENT, bram, client, None, address,
                dep_id, outstanding, None,
            )
        )
        if outstanding == 0:
            self.spans.drained(bram, dep_id, cycle)
            records.append(
                (
                    cycle, EventKind.DEP_COMPLETE, bram, None, None, None,
                    dep_id, None, None,
                )
            )

    def on_override(self, bram: str, cycle: int) -> None:
        self._overrides[bram] = self._overrides.get(bram, 0) + 1
        self._record(cycle, EventKind.OVERRIDE, bram)

    def on_chain_event(self, bram: str, dep_id: str, thread: str, cycle: int) -> None:
        key = (bram, dep_id)
        self._chain_events[key] = self._chain_events.get(key, 0) + 1
        self._record(
            cycle, EventKind.CHAIN_EVENT, bram, client=thread, dep_id=dep_id
        )

    # -- fabric observer callbacks -----------------------------------------------------

    def on_dep_routed(
        self, fabric: str, dep_id: str, bank: str, client: str,
        write: bool, cycle: int,
    ) -> None:
        """A router-gated cross-bank request was released into the crossbar."""
        key = (fabric, bank, "write" if write else "read")
        self._routed[key] = self._routed.get(key, 0) + 1
        self._record(
            cycle,
            EventKind.DEP_ROUTED,
            fabric,
            client=client,
            dep_id=dep_id,
            detail=f"-> {bank}",
        )

    def on_dep_notified(
        self, fabric: str, dep_id: str, bank: str, cycle: int, latency: int
    ) -> None:
        """A cross-bank arm notification reached its home bank."""
        self._record(
            cycle, EventKind.DEP_NOTIFIED, bank, dep_id=dep_id, value=latency
        )

    # -- watchdog observer callbacks ---------------------------------------------------

    def on_watchdog_event(self, event) -> None:
        key = (event.kind, event.action)
        self._watchdog[key] = self._watchdog.get(key, 0) + 1
        self._record(
            event.cycle,
            EventKind.WATCHDOG,
            event.bram or "system",
            client=event.client,
            dep_id=event.dep_id,
            value=event.blocked_cycles,
            detail=f"{event.kind} -> {event.action}",
        )

    def on_recovery(self, cycle: int, description: str) -> None:
        self._recoveries += 1
        self._record(cycle, EventKind.RECOVERY, "system", detail=description)

    # -- kernel observer callback ------------------------------------------------------

    def on_cycle(self, cycle: int, kernel) -> None:
        self.cycles_observed += 1
        if self._full:
            # Per-thread ROUND_COMPLETE instants are a "full"-level
            # nicety; the aggregate round counters come from the
            # executor stats at finalize time either way.
            for entry in self._stats_watch:
                rounds = entry[1].rounds_completed
                if rounds != entry[2]:
                    entry[2] = rounds
                    self._record(
                        cycle, EventKind.ROUND_COMPLETE, entry[0], value=rounds
                    )
        # One change scan drives both per-cycle consumers.  Arbitration
        # keeps a controller's blocked_by_client view object while its
        # blocked key set is unchanged, so the blocked count (the peak
        # gauge) can only move when the view is replaced; the profiler
        # also needs to know whether any classify_epoch moved.
        views_moved = epochs_moved = False
        for sig in self._sigs:
            controller = sig[0]
            view = controller.blocked_by_client
            if view is not sig[1]:
                sig[1] = view
                views_moved = True
                count = controller.blocked_count
                if count > sig[3]:
                    sig[3] = count
            epoch = controller.classify_epoch
            if epoch != sig[2]:
                sig[2] = epoch
                epochs_moved = True
        profiler_on_cycle = self._profiler_on_cycle
        if profiler_on_cycle is not None:
            profiler_on_cycle(cycle, views_moved, epochs_moved)

    def on_idle_cycles(self, first_cycle: int, count: int, kernel) -> None:
        """Fast-kernel batch notification for a skipped idle stretch.

        The skipped cycles ``first_cycle .. first_cycle + count - 1``
        are provably quiescent: no grants, no round completions, and a
        frozen blocked set that :meth:`on_cycle` already sampled at the
        last executed cycle.  The only per-cycle accumulators that move
        during idle time are the cycle count and — when profiling — the
        attribution ledger, which books the frozen classification in
        one batch (see ``CycleProfiler.on_idle_cycles``).
        """
        self.cycles_observed += count
        if self.profiler is not None:
            self.profiler.on_idle_cycles(first_cycle, count, kernel)

    # -- registry materialization ------------------------------------------------------

    def finalize(self) -> MetricsRegistry:
        """(Re)build the metrics registry from the accumulators.

        Idempotent: exporters call it implicitly; calling it mid-run gives
        a consistent snapshot of everything observed so far.
        """
        registry = self.registry
        registry.clear()

        # Submissions are derived, not counted on the hot path: every
        # distinct submission either grants eventually or leaves an
        # outstanding issue-cycle entry at the controller.
        granted_totals = {
            key: len(waits) for key, waits in self._grant_waits.items()
        }
        submitted_totals: dict[tuple[str, str], int] = dict(granted_totals)
        for bram in sorted(self._controllers):
            counts = self._controllers[bram].unfinished_request_counts()
            for port, count in counts.items():
                key = (bram, port)
                submitted_totals[key] = submitted_totals.get(key, 0) + count
        submitted = registry.counter(
            "sim_requests_submitted_total",
            "Distinct requests submitted to a controller port (post fault "
            "taps; re-assertions while blocked are not counted)",
            labels=("bram", "port"),
        )
        for (bram, port), count in sorted(submitted_totals.items()):
            submitted.inc(count, bram=bram, port=port)

        granted = registry.counter(
            "sim_requests_granted_total",
            "Requests granted by arbitration",
            labels=("bram", "port"),
        )
        for (bram, port), count in sorted(granted_totals.items()):
            granted.inc(count, bram=bram, port=port)

        # Blocked request-cycles are derived, not accumulated per cycle:
        # a granted request's wait equals exactly the cycles it sat
        # blocked, so the per-port totals are the grant-wait sums plus
        # the still-blocked requests' current ages.
        blocked_totals: dict[tuple[str, str], int] = {}
        for (bram, port), values in self._grant_waits.items():
            total = sum(values)
            if total:
                blocked_totals[(bram, port)] = total
        for bram in sorted(self._controllers):
            for item in self._controllers[bram].blocked:
                key = (bram, item.request.port)
                blocked_totals[key] = (
                    blocked_totals.get(key, 0) + item.blocked_cycles
                )
        blocked = registry.counter(
            "sim_blocked_request_cycles_total",
            "Cycles spent by requests sitting blocked at a port "
            "(one count per blocked request per cycle)",
            labels=("bram", "port"),
        )
        for (bram, port), count in sorted(blocked_totals.items()):
            blocked.inc(count, bram=bram, port=port)

        occupancy = registry.gauge(
            "sim_controller_blocked_peak",
            "Peak simultaneously blocked requests at a controller",
            labels=("bram",),
        )
        for sig in sorted(self._sigs, key=lambda sig: sig[4]):
            if sig[3]:
                occupancy.set(sig[3], bram=sig[4])

        pending = registry.gauge(
            "sim_port_pending",
            "Requests still blocked at a port at snapshot time",
            labels=("bram", "port"),
        )
        for bram in sorted(self._controllers):
            per_port: dict[str, int] = {}
            for item in self._controllers[bram].blocked:
                port = item.request.port
                per_port[port] = per_port.get(port, 0) + 1
            for port, count in sorted(per_port.items()):
                pending.set(count, bram=bram, port=port)

        waits = registry.histogram(
            "sim_dependency_wait_cycles",
            "Blocked wait of guarded (dependency-tagged) accesses",
            labels=("bram", "dep_id", "client"),
        )
        for (bram, dep_id, client), values in sorted(self._waits.items()):
            waits.observe_many(values, bram=bram, dep_id=dep_id, client=client)

        grant_waits = registry.histogram(
            "sim_grant_wait_cycles",
            "Blocked wait of all granted requests, per port",
            labels=("bram", "port"),
        )
        for (bram, port), values in sorted(self._grant_waits.items()):
            grant_waits.observe_many(values, bram=bram, port=port)

        overrides = registry.counter(
            "sim_port_c_overrides_total",
            "Cycles a blocked port-C read was overridden by port D (§3.1)",
            labels=("bram",),
        )
        for bram, count in sorted(self._overrides.items()):
            overrides.inc(count, bram=bram)

        chain = registry.counter(
            "sim_chain_events_total",
            "Events chained through the event-driven consumer schedule",
            labels=("bram", "dep_id"),
        )
        for (bram, dep_id), count in sorted(self._chain_events.items()):
            chain.inc(count, bram=bram, dep_id=dep_id)

        spans_total = registry.counter(
            "sim_dependency_spans_total",
            "Produce-consume spans opened, by completion state",
            labels=("bram", "dep_id", "state"),
        )
        for (bram, dep_id), spans in sorted(self.spans.by_dependency().items()):
            done = sum(1 for s in spans if s.complete_cycle is not None)
            if done:
                spans_total.inc(done, bram=bram, dep_id=dep_id, state="complete")
            if len(spans) - done:
                spans_total.inc(
                    len(spans) - done, bram=bram, dep_id=dep_id, state="open"
                )

        watchdog = registry.counter(
            "sim_watchdog_events_total",
            "Watchdog detector firings, by kind and action taken",
            labels=("kind", "action"),
        )
        for (kind, action), count in sorted(self._watchdog.items()):
            watchdog.inc(count, kind=kind, action=action)

        recoveries = registry.counter(
            "sim_watchdog_recoveries_total",
            "Forced-unblock degradations recorded by the watchdog",
        )
        if self._recoveries:
            recoveries.inc(self._recoveries)

        cycles = registry.gauge(
            "sim_cycles", "Simulation cycles observed by the telemetry layer"
        )
        cycles.set(self.cycles_observed)

        advances = registry.counter(
            "sim_thread_advances_total",
            "FSM transitions taken (the watchdog's progress signal)",
            labels=("thread",),
        )
        rounds = registry.counter(
            "sim_thread_rounds_total",
            "Completed thread rounds",
            labels=("thread",),
        )
        stalls = registry.counter(
            "sim_thread_stall_cycles_total",
            "Cycles a thread held its state waiting for a grant/message",
            labels=("thread",),
        )
        utilization = registry.gauge(
            "sim_thread_utilization",
            "1 - stall/cycles per thread",
            labels=("thread",),
        )
        for name in sorted(self._executors):
            stats = self._executors[name].stats
            if stats.advances:
                advances.inc(stats.advances, thread=name)
            if stats.rounds_completed:
                rounds.inc(stats.rounds_completed, thread=name)
            if stats.stall_cycles:
                stalls.inc(stats.stall_cycles, thread=name)
            utilization.set(round(stats.utilization, 6), thread=name)

        messages = registry.counter(
            "sim_tx_messages_total",
            "Messages emitted on egress interfaces",
            labels=("interface",),
        )
        for name in sorted(self._tx):
            count = self._tx[name].count
            if count:
                messages.inc(count, interface=name)

        if self._fabrics:
            crossbar = registry.counter(
                "sim_fabric_crossbar_requests_total",
                "Requests forwarded into / delivered out of the crossbar",
                labels=("fabric", "stat"),
            )
            router_events = registry.counter(
                "sim_fabric_router_events_total",
                "Cross-bank dependency router activity",
                labels=("fabric", "kind"),
            )
            bank_requests = registry.counter(
                "sim_fabric_bank_requests_total",
                "Fabric requests routed to / granted at each bank",
                labels=("fabric", "bank", "stat"),
            )
            for name in sorted(self._fabrics):
                stats = self._fabrics[name].fabric_stats()
                for stat in ("forwarded", "delivered"):
                    if stats["crossbar"][stat]:
                        crossbar.inc(
                            stats["crossbar"][stat], fabric=name, stat=stat
                        )
                for kind in (
                    "writes_routed",
                    "reads_routed",
                    "notifications_sent",
                    "notifications_applied",
                    "gated_cycles",
                ):
                    if stats["router"][kind]:
                        router_events.inc(
                            stats["router"][kind], fabric=name, kind=kind
                        )
                for bank, per_bank in sorted(stats["banks"].items()):
                    for stat in ("routed", "granted"):
                        if per_bank[stat]:
                            bank_requests.inc(
                                per_bank[stat],
                                fabric=name,
                                bank=bank,
                                stat=stat,
                            )

        if self.profiler is not None:
            wait_states = registry.counter(
                "sim_wait_state_cycles_total",
                "Thread cycles attributed to each exclusive wait state "
                "(see docs/profiling.md)",
                labels=("thread", "state"),
            )
            for thread, states in sorted(
                self.profiler.ledger.thread_state_totals().items()
            ):
                for state, count in sorted(states.items()):
                    if count:
                        wait_states.inc(count, thread=thread, state=state)

        outstanding = registry.gauge(
            "sim_dependency_outstanding",
            "Outstanding consumer reads per dependency at snapshot time",
            labels=("bram", "dep_id"),
        )
        for bram in sorted(self._controllers):
            deplist = getattr(self._controllers[bram], "deplist", None)
            if deplist is None:
                continue
            for entry in deplist.entries:
                outstanding.set(entry.outstanding, bram=bram, dep_id=entry.dep_id)

        return registry

    # -- convenience views ------------------------------------------------------------

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def thread_names(self) -> list[str]:
        return sorted(self._executors)

    def controller_names(self) -> list[str]:
        return sorted(self._controllers)

    def describe(self) -> str:
        spans = self.spans.spans
        return (
            f"telemetry: {self.cycles_observed} cycles, "
            f"{len(self._records)} events, {len(spans)} spans "
            f"({sum(1 for s in spans if s.complete)} complete)"
        )


def attach_telemetry(target, **kwargs) -> Telemetry:
    """Create a :class:`Telemetry` and attach it to ``target``."""
    return Telemetry(**kwargs).attach(target)
