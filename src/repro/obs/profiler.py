"""The cycle-attribution profiler.

:class:`CycleProfiler` rides the telemetry observer seams and
attributes **every simulated cycle of every thread** to exactly one
wait state (see :mod:`repro.obs.attribution`):

* after each executed cycle (``on_cycle``) it polls the per-executor
  ``stats.advances`` counter — a delta means the FSM took a transition
  this cycle (*executing*); otherwise the thread held, and the
  controllers' ``blocked`` taps say why: a blocked request is handed to
  its controller's ``classify_wait`` (which reads the organization's
  grant rule, ``hold``), and a thread with no pending request anywhere is
  *idle* (terminal hold, empty receive wait, or a fault-dropped
  request);
* for a wheel-kernel idle skip (``on_idle_cycles``) the same
  classification is booked ``count`` times in one call: during a skip
  every executor holds and every blocked set is frozen, so the
  per-cycle classification is constant — the skip's first cycle is
  attributed like an executed cycle in which nothing moved, and the
  open runs extend over the rest.  Batch booking equals the reference
  kernel's one-by-one accrual, cell for cell and segment for segment.

Conservation is structural: exactly one state is booked per thread per
simulated cycle, so each thread's attributed total equals its
``stats.cycles``.  ``conservation_report`` checks it; the differential
suite asserts wheel == reference byte-for-byte.

Only *top-level* kernel controllers are scanned for blocked requests:
a fabric re-asserts delivered requests at its banks every cycle under
the same client names, so scanning banks too would double-classify —
instead :meth:`repro.fabric.MemoryFabric.classify_wait` delegates to
the owning bank, keeping the bank-resolution in the site label.
"""

from __future__ import annotations

import csv
import io

from .attribution import (
    EXECUTING,
    IDLE,
    NO_SITE,
    WAIT_STATES,
    AttributionLedger,
    Segment,
)

#: Versioned schema tag of :func:`breakdown_dict` / ``--breakdown-json``.
PROFILE_SCHEMA = "repro.obs.profile/1"

#: Singleton classification tuples for the thread-local states: open
#: runs carry their classification tuple, so "same classification as
#: last cycle" is one identity check in the hot loop.
_EXEC_CLASS = (EXECUTING, NO_SITE, NO_SITE)
_IDLE_CLASS = (IDLE, NO_SITE, NO_SITE)

__all__ = [
    "CycleProfiler",
    "PROFILE_SCHEMA",
    "attach_profiler",
    "breakdown_csv",
    "breakdown_dict",
    "merge_profiles",
    "render_breakdown",
]


class CycleProfiler:
    """Exclusive per-thread cycle accounting over one simulation.

    The per-cycle path stays inside the telemetry overhead budget by
    buffering one *open run* per thread — its classification and start
    cycle — which extends *implicitly*: every attributed cycle advances
    the shared :attr:`_end` cursor, so an unchanged classification
    costs one identity check and nothing else.  The ledger is touched
    only when a thread's classification changes; reading :attr:`ledger`
    flushes the buffers first, so every report sees exact totals.

    The controller-side work is change-driven too: the telemetry's
    change scan (each controller's ``blocked_by_client`` view object and
    ``classify_epoch``, see :meth:`on_cycle`) says whether anything a
    stalled thread's classification reads has moved, and the merged
    client -> blocked request map of a multi-controller kernel is
    rebuilt only when a view object was replaced, not when only an
    epoch moved."""

    def __init__(self) -> None:
        self._ledger = AttributionLedger()
        self._executors: list = []
        self._controllers: list = []
        self._single = None
        #: per-thread hot-loop record: [name, stats, last_advances,
        #: run_class, run_start, memo_request, memo_epoch, memo_class].
        #: The open run is (run_class, run_start), extending implicitly
        #: to ``_end``; run_class is None when no run is open.  The memo
        #: is exact because stalled executors re-assert the same request
        #: object and every guard-state mutation bumps the controller's
        #: classify_epoch.
        self._threads: list = []
        #: multi-controller kernels: the merged client -> (controller,
        #: request) map, valid until some view object is replaced
        #: (None = rebuild on next use)
        self._merged = None
        #: one past the last cycle attributed so far — the shared end of
        #: every open run (both kernels attribute cycles in order, so
        #: all open runs end together)
        self._end = 0
        #: the cycle attribution started at (captured at bind)
        self._begin = 0

    @property
    def cycles_observed(self) -> int:
        """Cycles attributed so far — derived, so the per-cycle path
        keeps no separate counter."""
        return self._end - self._begin

    @property
    def ledger(self) -> AttributionLedger:
        """The attribution ledger, with all open runs flushed in."""
        self.flush()
        return self._ledger

    def flush(self) -> None:
        """Fold the open run buffers into the ledger (idempotent; safe
        mid-simulation — a continuing run re-merges into its segment)."""
        book = self._ledger.book
        end = self._end
        for record in self._threads:
            classification = record[3]
            if classification is not None:
                state, site, port = classification
                book(record[0], state, site, port, record[4], end - record[4])
                record[3] = None

    # -- wiring ---------------------------------------------------------------------

    def bind(self, kernel) -> "CycleProfiler":
        """Capture the kernel's executors and *top-level* controllers
        (sorted by name — the classification tie-break order)."""
        self._executors = [
            (name, kernel.executors[name]) for name in sorted(kernel.executors)
        ]
        self._controllers = [
            (name, kernel.controllers[name])
            for name in sorted(kernel.controllers)
        ]
        # Single-controller kernels (the common case) read the
        # controller's own client-indexed blocked view with no merge at
        # all.
        self._single = (
            self._controllers[0][1] if len(self._controllers) == 1 else None
        )
        # stats objects live as long as their executor: hoist them (and
        # all per-thread mutable state) into one record per thread so
        # the per-cycle loop runs without dict lookups.
        self._threads = [
            [name, executor.stats, executor.stats.advances, None, 0,
             None, None, None]
            for name, executor in self._executors
        ]
        self._merged = None
        self._begin = self._end = kernel.cycle
        return self

    # -- per-cycle booking ------------------------------------------------------------

    def _blocked_map(self) -> dict:
        """client -> (controller, request), first occurrence winning in
        sorted-controller order (each controller's ``blocked_by_client``
        view is built from its sort_key-ordered blocked list)."""
        blocked: dict = {}
        for __, controller in self._controllers:
            for client, request in controller.blocked_by_client.items():
                if client not in blocked:
                    blocked[client] = (controller, request)
        return blocked

    def on_cycle(
        self, cycle: int, views_moved: bool, epochs_moved: bool
    ) -> None:
        """Attribute one executed cycle.

        The flags come from the telemetry's change scan over every
        controller since the previous cycle: whether any
        ``blocked_by_client`` view *object* was replaced, and whether
        any ``classify_epoch`` moved.  Controllers keep the same view
        object while their blocked membership is unchanged, so with
        neither flag set no stalled thread's classification can have
        changed — each such thread's open run extends for free."""
        if views_moved:
            self._merged = None
        steady = not (views_moved or epochs_moved)
        single = self._single
        blocked = None
        for record in self._threads:
            prev = record[3]
            advances = record[1].advances
            if advances != record[2]:
                record[2] = advances
                if prev is _EXEC_CLASS:
                    continue
                classification = _EXEC_CLASS
            else:
                if steady and prev is not None and prev is not _EXEC_CLASS:
                    # Already stalled or idle last cycle, and nothing in
                    # any controller moved: same classification holds.
                    # (A thread that *was* executing needs a fresh look —
                    # it may have gone idle without touching any map.)
                    continue
                if blocked is None:
                    # Resolved lazily: cycles where every thread
                    # advanced never touch the controllers at all.  A
                    # single controller's own client-indexed view is
                    # used as-is; several share the merged map, rebuilt
                    # only after a view changed.
                    if single is not None:
                        blocked = single.blocked_by_client
                    else:
                        blocked = self._merged
                        if blocked is None:
                            blocked = self._merged = self._blocked_map()
                entry = blocked.get(record[0])
                if entry is None:
                    classification = _IDLE_CLASS
                else:
                    if single is not None:
                        controller, request = single, entry
                    else:
                        controller, request = entry
                    # Stalled executors re-assert the *same* frozen
                    # request object cycle over cycle, so identity +
                    # classify_epoch is an exact memo key (a fresh
                    # equal-valued object just reclassifies).
                    epoch = controller.classify_epoch
                    if record[5] is request and record[6] == epoch:
                        classification = record[7]
                    else:
                        classification = controller.classify_wait(request)
                        record[5] = request
                        record[6] = epoch
                        record[7] = classification
                # Identity first (the memo hands back the same tuple
                # between epoch bumps); fall back to equality so an
                # epoch bump with an unchanged answer extends too.
                if prev is classification:
                    continue
            if prev is not None:
                if prev == classification:
                    record[3] = classification
                    continue
                state, site, port = prev
                self._ledger.book(
                    record[0], state, site, port, record[4],
                    cycle - record[4],
                )
            record[3] = classification
            record[4] = cycle
        self._end = cycle + 1

    def on_idle_cycles(self, first_cycle: int, count: int, kernel) -> None:
        """Batch booking for a wheel-kernel skip of ``count`` cycles.

        During a skip every executor holds (no thread advances) and
        no view or epoch moves, so each skipped cycle classifies exactly
        like ``first_cycle``: attribute that one as a cycle in which
        nothing moved, and every open run extends over the rest."""
        self.on_cycle(first_cycle, False, False)
        self._end = first_cycle + count

    # -- reports --------------------------------------------------------------------

    def conservation_report(self) -> dict:
        """Per-thread attributed vs. simulated cycles (must be equal)."""
        totals = self.ledger.thread_totals()
        threads = {}
        ok = True
        for name, executor in self._executors:
            attributed = totals.get(name, 0)
            simulated = executor.stats.cycles
            if attributed != simulated:
                ok = False
            threads[name] = {"attributed": attributed, "simulated": simulated}
        return {"ok": ok, "threads": threads}

    def timeline(self, thread: str) -> list[Segment]:
        return list(self.ledger.timelines.get(thread, []))


def breakdown_dict(profiler: CycleProfiler) -> dict:
    """The versioned JSON breakdown (zero-filled state axes, sorted
    cells) — byte-deterministic once serialized with sorted keys."""
    per_thread = profiler.ledger.thread_state_totals()
    threads = {}
    for name, __ in profiler._executors:
        states = per_thread.get(name, {})
        threads[name] = {
            "total": sum(states.values()),
            "states": {state: states.get(state, 0) for state in WAIT_STATES},
        }
    state_totals = profiler.ledger.state_totals()
    sites: dict[str, dict[str, int]] = {}
    for (site, state), count in sorted(profiler.ledger.site_state_totals().items()):
        if site == NO_SITE:
            continue
        sites.setdefault(site, {})[state] = count
    return {
        "schema": PROFILE_SCHEMA,
        "cycles": profiler.cycles_observed,
        "threads": threads,
        "states": {state: state_totals.get(state, 0) for state in WAIT_STATES},
        "sites": sites,
        "cells": [
            {
                "thread": thread,
                "state": state,
                "site": site,
                "port": port,
                "cycles": count,
            }
            for (thread, state, site, port), count in profiler.ledger.sorted_cells()
        ],
        "conservation": profiler.conservation_report(),
    }


def breakdown_csv(profiler: CycleProfiler) -> str:
    """Flat CSV of the attribution cells (sorted, deterministic)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["thread", "state", "site", "port", "cycles"])
    for (thread, state, site, port), count in profiler.ledger.sorted_cells():
        writer.writerow([thread, state, site, port, count])
    return out.getvalue()


def render_breakdown(profiler: CycleProfiler, top: int = 0) -> str:
    """Human-readable per-thread table plus the hottest wait cells."""
    lines = [f"cycle attribution over {profiler.cycles_observed} cycles"]
    per_thread = profiler.ledger.thread_state_totals()
    conservation = profiler.conservation_report()
    header = "thread".ljust(12) + "".join(
        state.rjust(18) for state in WAIT_STATES
    )
    lines.append(header)
    for name, __ in profiler._executors:
        states = per_thread.get(name, {})
        row = name.ljust(12) + "".join(
            str(states.get(state, 0)).rjust(18) for state in WAIT_STATES
        )
        lines.append(row)
    totals = profiler.ledger.state_totals()
    lines.append(
        "TOTAL".ljust(12)
        + "".join(str(totals.get(state, 0)).rjust(18) for state in WAIT_STATES)
    )
    status = "ok" if conservation["ok"] else "VIOLATED"
    lines.append(f"conservation: {status} (attributed == simulated per thread)")
    wait_cells = [
        (count, key)
        for key, count in profiler.ledger.sorted_cells()
        if key[1] not in (EXECUTING, IDLE)
    ]
    if top > 0 and wait_cells:
        wait_cells.sort(key=lambda item: (-item[0], item[1]))
        lines.append(f"top {min(top, len(wait_cells))} wait cells:")
        for count, (thread, state, site, port) in wait_cells[:top]:
            lines.append(
                f"  {thread}: {state} at {site}:{port} for {count} cycles"
            )
    return "\n".join(lines) + "\n"


def merge_profiles(profiles: list[dict]) -> dict:
    """Fold per-run breakdown dicts (or lighter ``states``/``sites``
    payloads) into one aggregate — pure commutative addition over sorted
    keys, so the merge is byte-identical for any arrival order once the
    inputs are index-sorted."""
    states: dict[str, int] = {state: 0 for state in WAIT_STATES}
    sites: dict[str, dict[str, int]] = {}
    cycles = 0
    for profile in profiles:
        cycles += profile.get("cycles", 0)
        for state, count in profile.get("states", {}).items():
            states[state] = states.get(state, 0) + count
        for site, per_state in profile.get("sites", {}).items():
            bucket = sites.setdefault(site, {})
            for state, count in per_state.items():
                bucket[state] = bucket.get(state, 0) + count
    return {
        "cycles": cycles,
        "runs": len(profiles),
        "states": states,
        "sites": {site: dict(sorted(per.items())) for site, per in sorted(sites.items())},
    }


def attach_profiler(target, **kwargs):
    """Attach telemetry with profiling enabled; returns the profiler.

    ``kwargs`` are forwarded to :class:`~repro.obs.tracer.Telemetry`
    (the telemetry object itself lands on ``target.telemetry``)."""
    from .tracer import Telemetry

    telemetry = Telemetry(profile=True, **kwargs).attach(target)
    return telemetry.profiler
