"""Structured trace events — the raw record the telemetry layer keeps.

Every event is a slotted dataclass stamped with the simulation cycle it
occurred in (slotted, not frozen: a frozen dataclass pays
``object.__setattr__`` per field on construction, which the traced hot
path cannot afford; treat events as immutable by convention).  The
tracer's callbacks go one step further: they record plain tuples in
field order and build these objects only when ``Telemetry.events`` is
read.  Events are appended in kernel order by a deterministic
simulation, so two runs with the same seed produce identical event
lists — the property the byte-identical exporters rely on.

The event kinds follow the dependency lifecycle the paper's §3 describes:
a producer write arms the guard (``DEP_ARMED``), blocked consumers wait,
each granted consumer read decrements the outstanding counter
(``DEP_DECREMENT``), and the cycle closes when the counter reaches zero
(``DEP_COMPLETE``).  Watchdog detections and recoveries from
:mod:`repro.faults` ride the same stream so traces correlate faults with
their symptoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class EventKind:
    """Namespaced string constants for :attr:`TraceEvent.kind`."""

    SUBMIT = "submit"
    GRANT = "grant"
    DEP_ARMED = "dep-armed"
    DEP_DECREMENT = "dep-decrement"
    DEP_COMPLETE = "dep-complete"
    OVERRIDE = "override"
    CHAIN_EVENT = "chain-event"
    WATCHDOG = "watchdog"
    RECOVERY = "recovery"
    ROUND_COMPLETE = "round-complete"
    #: a cross-bank guarded request released into the fabric crossbar
    DEP_ROUTED = "dep-routed"
    #: a cross-bank arm notification applied at its home bank
    DEP_NOTIFIED = "dep-notified"

    #: every kind, in a stable order (docs + validation)
    ALL = (
        SUBMIT,
        GRANT,
        DEP_ARMED,
        DEP_DECREMENT,
        DEP_COMPLETE,
        OVERRIDE,
        CHAIN_EVENT,
        WATCHDOG,
        RECOVERY,
        ROUND_COMPLETE,
        DEP_ROUTED,
        DEP_NOTIFIED,
    )


@dataclass(slots=True)
class TraceEvent:
    """One structured cycle event.  Treat as immutable: events are
    shared between the tracer's views and the exporters.

    Attributes:
        cycle: Simulation cycle the event occurred in.
        kind: One of :class:`EventKind`.
        source: Originating component — a BRAM/controller name, a thread
            name (for ``round-complete``), or ``"system"``.
        client: Requesting thread, when the event concerns a request.
        port: Wrapper port (A/B/C/D/G) of the request, if any.
        address: BRAM word address of the request, if any.
        dep_id: Dependency identifier, for lifecycle events.
        value: Kind-specific integer payload — wait cycles for ``grant``,
            outstanding count for ``dep-armed``/``dep-decrement``,
            blocked cycles for ``watchdog``.
        detail: Free-form human-readable annotation.
    """

    cycle: int
    kind: str
    source: str
    client: Optional[str] = None
    port: Optional[str] = None
    address: Optional[int] = None
    dep_id: Optional[str] = None
    value: Optional[int] = None
    detail: Optional[str] = None

    def describe(self) -> str:
        parts = [f"cycle {self.cycle}: {self.kind} @ {self.source}"]
        if self.client:
            parts.append(f"client={self.client}")
        if self.port:
            parts.append(f"port={self.port}")
        if self.address is not None:
            parts.append(f"addr={self.address}")
        if self.dep_id:
            parts.append(f"dep={self.dep_id}")
        if self.value is not None:
            parts.append(f"value={self.value}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)
