"""Machine-readable exporters over a :class:`~repro.obs.tracer.Telemetry`.

Three formats:

* **Chrome trace-event JSON** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) — loadable in Perfetto or
  ``chrome://tracing``.  Dependency spans and consumer reads become
  complete ("X") events on per-controller and per-thread tracks;
  watchdog firings, port-C overrides, and chained events become
  instants ("i").  One simulation cycle maps to one microsecond of
  trace time.
* **Prometheus text exposition** (:func:`prometheus_text` /
  :func:`write_prometheus`) — the metrics registry, verbatim.
* **JSON/CSV summaries** (:func:`summary_dict`,
  :func:`write_summary_json`, :func:`write_summary_csv`) — the
  aggregate the benchmark harness reuses to emit ``BENCH_sim.json``.

All exporters are deterministic: fixed key order, no wall-clock
timestamps, no environment leakage — two runs of the same seeded
simulation serialize byte-identically.
"""

from __future__ import annotations

import csv
import json

from .attribution import NO_SITE, WAIT_STATES
from .events import EventKind
from .metrics import MetricsRegistry
from .tracer import Telemetry

#: pid values of the two trace-event "processes" (track groups).
THREADS_PID = 1
CONTROLLERS_PID = 2

_INSTANT_KINDS = {
    EventKind.OVERRIDE: "override",
    EventKind.CHAIN_EVENT: "chain",
    EventKind.WATCHDOG: "watchdog",
    EventKind.RECOVERY: "recovery",
    EventKind.DEP_ARMED: "guard",
    EventKind.DEP_DECREMENT: "guard",
    # Recorded only at "full" trace level; absent from "deps" traces.
    EventKind.SUBMIT: "request",
    EventKind.GRANT: "request",
    EventKind.ROUND_COMPLETE: "progress",
}


def chrome_trace(telemetry: Telemetry) -> dict:
    """Render the telemetry record as a trace-event JSON document.

    Every object is built with its keys in sorted order, so
    :func:`dumps_chrome_trace` serializes it without re-sorting and
    still writes exactly what ``sort_keys=True`` would."""
    threads = telemetry.thread_names()
    controllers = telemetry.controller_names()
    thread_tid = {name: tid for tid, name in enumerate(threads, start=1)}
    controller_tid = {name: tid for tid, name in enumerate(controllers, start=1)}

    events: list[dict] = [
        {
            "args": {"name": "threads"},
            "name": "process_name",
            "ph": "M",
            "pid": THREADS_PID,
            "tid": 0,
            "ts": 0,
        },
        {
            "args": {"name": "memory controllers"},
            "name": "process_name",
            "ph": "M",
            "pid": CONTROLLERS_PID,
            "tid": 0,
            "ts": 0,
        },
    ]
    for pid, tids in (
        (THREADS_PID, thread_tid),
        (CONTROLLERS_PID, controller_tid),
    ):
        for name, tid in tids.items():
            events.append(
                {
                    "args": {"name": name},
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "ts": 0,
                }
            )

    # Dependency-lifecycle spans on the controller tracks.
    append = events.append
    for span in telemetry.spans.spans:
        write = span.write_cycle
        reads = span.reads
        complete = span.complete_cycle is not None
        end = span.complete_cycle if complete else span.last_activity
        append(
            {
                "args": {
                    "complete": complete,
                    "expected_reads": span.expected_reads,
                    "post_write_latencies": [
                        read.grant_cycle - write for read in reads
                    ],
                    "producer": span.producer,
                    "reads": len(reads),
                },
                "cat": "dependency",
                "dur": max(0, end - write),
                "name": f"{span.dep_id}#{span.instance}",
                "ph": "X",
                "pid": CONTROLLERS_PID,
                "tid": controller_tid.get(span.bram, 0),
                "ts": write,
            }
        )
        # Each consumer read: a slice on the reading thread's track,
        # spanning its blocked wait (issue -> grant).
        name = f"read {span.dep_id}"
        for read in reads:
            wait = read.grant_cycle - read.issue_cycle
            append(
                {
                    "args": {
                        "bram": span.bram,
                        "dep_id": span.dep_id,
                        "post_write_latency": read.grant_cycle - write,
                        "wait_cycles": wait,
                    },
                    "cat": "consumer-read",
                    "dur": max(0, wait),
                    "name": name,
                    "ph": "X",
                    "pid": THREADS_PID,
                    "tid": thread_tid.get(read.client, 0),
                    "ts": read.issue_cycle,
                }
            )

    # Instant events for the remaining structured record: a controller
    # name wins over a thread name; anything else lands on track 0.
    tracks = {name: (THREADS_PID, tid) for name, tid in thread_tid.items()}
    tracks.update(
        (name, (CONTROLLERS_PID, tid)) for name, tid in controller_tid.items()
    )
    untracked = (CONTROLLERS_PID, 0)
    for (
        cycle, kind, source, client, port, address, dep_id, value, detail
    ) in telemetry.event_records():
        category = _INSTANT_KINDS.get(kind)
        if category is None:
            continue
        pid, tid = tracks.get(source, untracked)
        args = {}
        if address is not None:
            args["address"] = address
        if client is not None:
            args["client"] = client
        if dep_id is not None:
            args["dep_id"] = dep_id
        if detail is not None:
            args["detail"] = detail
        if port is not None:
            args["port"] = port
        if value is not None:
            args["value"] = value
        append(
            {
                "args": args,
                "cat": category,
                "name": kind,
                "ph": "i",
                "pid": pid,
                "s": "t",
                "tid": tid,
                "ts": cycle,
            }
        )

    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "cycles": telemetry.cycles_observed,
            "exporter": "repro.obs",
            "time_unit": "1 cycle = 1 us",
        },
        "traceEvents": events,
    }


#: Phases and instant scopes :func:`validate_chrome_trace` accepts.
_PHASES = frozenset(("X", "i", "M", "C", "b", "e", "B", "E"))
_SCOPES = frozenset(("t", "p", "g"))


def validate_chrome_trace(document: dict) -> None:
    """Schema-check a trace-event document; raises ``ValueError``.

    Checks the subset of the trace-event format the exporter emits:
    a ``traceEvents`` array whose entries carry a name, a known phase,
    integer pid/tid, a non-negative timestamp, and — for complete
    events — a non-negative duration.
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document must contain a traceEvents array")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        get = event.get
        name = get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"traceEvents[{index}]: missing name")
        phase = get("ph")
        if phase not in _PHASES:
            raise ValueError(
                f"traceEvents[{index}]: unknown phase {phase!r}"
            )
        if not isinstance(get("pid"), int):
            raise ValueError(f"traceEvents[{index}]: pid must be an integer")
        if not isinstance(get("tid"), int):
            raise ValueError(f"traceEvents[{index}]: tid must be an integer")
        ts = get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(
                f"traceEvents[{index}]: ts must be a non-negative number"
            )
        if phase == "X":
            dur = get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"traceEvents[{index}]: X event needs non-negative dur"
                )
        elif phase == "i" and get("s") not in _SCOPES:
            raise ValueError(
                f"traceEvents[{index}]: instant scope must be t/p/g"
            )


def dumps_chrome_trace(telemetry: Telemetry) -> str:
    """Serialize with a fixed key order — byte-identical across runs.

    :func:`chrome_trace` already builds every object in sorted key
    order, so the encoder skips ``sort_keys``'s per-object re-sort; the
    document is a fresh tree, so it skips the circular-reference check
    too."""
    document = chrome_trace(telemetry)
    validate_chrome_trace(document)
    return (
        json.dumps(document, separators=(",", ":"), check_circular=False)
        + "\n"
    )


def write_chrome_trace(telemetry: Telemetry, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dumps_chrome_trace(telemetry))


# -- profiler trace --------------------------------------------------------------------

#: pid of the profiler's wait-state track group.
PROFILE_PID = 3


def profile_chrome_trace(profiler) -> dict:
    """Chrome-trace document of the attribution timeline: one "X" slice
    per run-length segment on per-thread tracks, plus a per-state "C"
    counter track sampled at every segment boundary.  Deterministic:
    segments and boundaries derive purely from the ledger."""
    threads = sorted(profiler.ledger.timelines)
    thread_tid = {name: tid for tid, name in enumerate(threads, start=1)}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PROFILE_PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": "wait-state attribution"},
        }
    ]
    for name, tid in thread_tid.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PROFILE_PID,
                "tid": tid,
                "ts": 0,
                "args": {"name": name},
            }
        )
    boundaries: set[int] = set()
    segments = []
    for name in threads:
        for segment in profiler.ledger.timelines[name]:
            segments.append(segment)
            boundaries.add(segment.start)
            boundaries.add(segment.end)
            args = {}
            if segment.site != NO_SITE:
                args = {"site": segment.site, "port": segment.port}
            events.append(
                {
                    "name": segment.state,
                    "cat": "wait-state",
                    "ph": "X",
                    "pid": PROFILE_PID,
                    "tid": thread_tid[name],
                    "ts": segment.start,
                    "dur": segment.length,
                    "args": args,
                }
            )
    for boundary, counts in _state_counts(segments, boundaries):
        events.append(
            {
                "name": "threads per wait state",
                "ph": "C",
                "pid": PROFILE_PID,
                "tid": 0,
                "ts": boundary,
                "args": counts,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs.profiler",
            "cycles": profiler.cycles_observed,
            "time_unit": "1 cycle = 1 us",
        },
    }


def _state_counts(segments, boundaries):
    """Yield ``(boundary, {state: segments covering it})`` for each
    boundary in ascending order, where a segment covers the cycles
    ``start <= cycle < end`` — in one sweep over the sorted segment
    starts and ends, keeping a running count per state."""
    starts = sorted((segment.start, segment.state) for segment in segments)
    ends = sorted((segment.end, segment.state) for segment in segments)
    live = {state: 0 for state in WAIT_STATES}
    opened = closed = 0
    for boundary in sorted(boundaries):
        while opened < len(starts) and starts[opened][0] <= boundary:
            live[starts[opened][1]] += 1
            opened += 1
        while closed < len(ends) and ends[closed][0] <= boundary:
            live[ends[closed][1]] -= 1
            closed += 1
        yield boundary, dict(live)


def dumps_profile_chrome_trace(profiler) -> str:
    document = profile_chrome_trace(profiler)
    validate_chrome_trace(document)
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def write_profile_chrome_trace(profiler, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dumps_profile_chrome_trace(profiler))


# -- Prometheus ------------------------------------------------------------------------


def prometheus_text(telemetry: Telemetry) -> str:
    return telemetry.finalize().render_prometheus()


def write_prometheus(telemetry: Telemetry, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(prometheus_text(telemetry))


# -- JSON/CSV summary ------------------------------------------------------------------


def summary_dict(telemetry: Telemetry) -> dict:
    """The aggregate summary: threads, controllers, dependencies, metrics."""
    registry: MetricsRegistry = telemetry.finalize()
    threads = {}
    for name in telemetry.thread_names():
        stats = telemetry._executors[name].stats
        threads[name] = {
            "cycles": stats.cycles,
            "stall_cycles": stats.stall_cycles,
            "advances": stats.advances,
            "rounds_completed": stats.rounds_completed,
            "utilization": round(stats.utilization, 6),
        }
    controllers = {}
    for name in telemetry.controller_names():
        controller = telemetry._controllers[name]
        controllers[name] = {
            "latency_samples": len(controller.latency_samples),
            "pending_blocked": controller.blocked_count,
        }
    dependencies = {
        f"{bram}/{dep_id}": stats
        for (bram, dep_id), stats in telemetry.spans.wait_statistics().items()
    }
    return {
        "schema": "repro.obs.summary/1",
        "cycles": telemetry.cycles_observed,
        "events": len(telemetry.event_records()),
        "spans": {
            "total": len(telemetry.spans.spans),
            "complete": len(telemetry.spans.complete_spans()),
        },
        "threads": threads,
        "controllers": controllers,
        "dependencies": dependencies,
        "metrics": registry.to_dict(),
    }


def dumps_summary(telemetry: Telemetry) -> str:
    return (
        json.dumps(summary_dict(telemetry), sort_keys=True, indent=2) + "\n"
    )


def write_summary_json(telemetry: Telemetry, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(dumps_summary(telemetry))


def write_summary_csv(telemetry: Telemetry, path: str) -> None:
    """Flat CSV of every metric sample: name, type, labels, value."""
    registry = telemetry.finalize()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "type", "labels", "value"])
        for metric in registry:
            for key, value in metric.samples():
                labels = ";".join(
                    f"{n}={v}" for n, v in zip(metric.label_names, key)
                )
                if metric.type_name == "histogram":
                    writer.writerow(
                        [metric.name, "histogram", labels, value.total]
                    )
                    writer.writerow(
                        [f"{metric.name}_sum", "histogram", labels, value.sum]
                    )
                else:
                    writer.writerow(
                        [metric.name, metric.type_name, labels, value]
                    )


# -- benchmark artifact ----------------------------------------------------------------


def write_bench_json(path: str, payload: dict) -> None:
    """Write a ``BENCH_*.json`` artifact with stable formatting."""
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
