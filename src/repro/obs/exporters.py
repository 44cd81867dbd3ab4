"""Machine-readable exporters over a :class:`~repro.obs.tracer.Telemetry`
and a :class:`~repro.obs.profiler.CycleProfiler`.

Every exporter returns text; the command line (``repro.cli``) writes
the files.  The formats:

* **Chrome trace-event JSON** (:func:`dumps_chrome_trace`) — loadable
  in Perfetto or ``chrome://tracing``.  Dependency spans and consumer
  reads become complete ("X") events on per-controller and per-thread
  tracks; watchdog firings, port-C overrides, and chained events become
  instants ("i").  One simulation cycle maps to one microsecond of
  trace time.  :func:`dumps_profile_chrome_trace` writes the profiler's
  wait-state timeline the same way.
* **Prometheus text exposition** (:func:`prometheus_text`) — the
  metrics registry, verbatim.
* **JSON/CSV summaries** (:func:`summary_dict`, :func:`dumps_summary`,
  :func:`dumps_summary_csv`) — the aggregate the benchmark harness
  reuses to emit ``BENCH_sim.json``.

All exporters are deterministic: fixed key order, no wall-clock
timestamps, no environment leakage — two runs of the same seeded
simulation serialize byte-identically.
"""

from __future__ import annotations

import csv
import io
import json
from operator import attrgetter

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


#: Phases and instant scopes :func:`validate_chrome_trace` accepts.
_PHASES = frozenset(("X", "i", "M", "C", "b", "e", "B", "E"))
_SCOPES = frozenset(("t", "p", "g"))


def _check_event(index, name, phase, pid, tid, ts, dur, scope) -> None:
    """The per-event rules of the trace-event subset the exporter
    writes: a name, a known phase, integer pid/tid, a non-negative
    timestamp, a non-negative duration for a complete event and a known
    scope for an instant.  Raises ``ValueError`` naming
    ``traceEvents[index]``."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"traceEvents[{index}]: missing name")
    if phase not in _PHASES:
        raise ValueError(f"traceEvents[{index}]: unknown phase {phase!r}")
    if not isinstance(pid, int):
        raise ValueError(f"traceEvents[{index}]: pid must be an integer")
    if not isinstance(tid, int):
        raise ValueError(f"traceEvents[{index}]: tid must be an integer")
    if not isinstance(ts, (int, float)) or ts < 0:
        raise ValueError(
            f"traceEvents[{index}]: ts must be a non-negative number"
        )
    if phase == "X":
        if not isinstance(dur, (int, float)) or dur < 0:
            raise ValueError(
                f"traceEvents[{index}]: X event needs non-negative dur"
            )
    elif phase == "i" and scope not in _SCOPES:
        raise ValueError(f"traceEvents[{index}]: instant scope must be t/p/g")


def validate_chrome_trace(document: dict) -> None:
    """Schema-check a trace-event document; raises ``ValueError``.

    A ``traceEvents`` array whose entries are objects that pass the
    per-event rules :func:`dumps_chrome_trace` applies as it writes."""
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document must contain a traceEvents array")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{index}] is not an object")
        get = event.get
        _check_event(
            index, get("name"), get("ph"), get("pid"), get("tid"),
            get("ts"), get("dur"), get("s"),
        )


# -- trace-event text ------------------------------------------------------------------
#
# Both traces are written alike, sharing the header, the metadata
# template, the string memo and the per-event check: each event's text
# is formatted from a ``%`` template with its keys in sorted order and
# checked as it is written, and the pieces are joined once.  The ``%s``
# slots take JSON text and the ``%d`` slots exact ints.

#: The string encoder ``json.dumps`` uses.
_quote = json.encoder.encode_basestring_ascii
_HEADER = (
    '{"displayTimeUnit":"ms","otherData":{"cycles":%s,"exporter":%s,'
    '"time_unit":"1 cycle = 1 us"},"traceEvents":['
)
_METADATA = '{"args":{"name":%s},"name":%s,"ph":"M","pid":%d,"tid":%d,"ts":0}'


def _json_text():
    """A fresh ``text(value)`` for one export: ``value``'s JSON text as
    ``json.dumps`` writes it (each distinct string encoded once, exact
    ints through ``%d``, any other value through ``json.dumps``)."""
    quoted: dict[str, str] = {}

    def text(value) -> str:
        kind = type(value)
        if kind is str:
            encoded = quoted.get(value)
            if encoded is None:
                encoded = quoted[value] = _quote(value)
            return encoded
        if kind is int:
            return "%d" % value
        return json.dumps(value, separators=(",", ":"), check_circular=False)

    return text


def _number_texts(fields: tuple, text) -> tuple:
    """``fields`` for an ``_ANY`` form: every field that is not already
    JSON text (a ``str``) replaced by its JSON text."""
    return tuple(
        field if type(field) is str else text(field) for field in fields
    )


def _metadata(events: list, text, kind: str, pid: int, tid: int, label):
    """Check and append one metadata event: a ``process_name`` (tid 0)
    or ``thread_name`` event naming track ``(pid, tid)`` ``label``."""
    _check_event(len(events), kind, "M", pid, tid, 0, None, None)
    events.append(_METADATA % (text(label), text(kind), pid, tid))


def _document(events: list, text, cycles, exporter: str) -> str:
    """The trace document holding ``events``' texts, joined once."""
    events[0] = _HEADER % (text(cycles), text(exporter)) + events[0]
    events[-1] += "]}\n"
    return ",".join(events)


# -- telemetry trace -------------------------------------------------------------------

_DEPENDENCY = (
    '{"args":{"complete":%s,"expected_reads":%s,'
    '"post_write_latencies":[%s],"producer":%s,"reads":%d},'
    '"cat":"dependency","dur":%d,"name":%s,"ph":"X","pid":%d,"tid":%d,'
    '"ts":%d}'
)
_READ = (
    '{"args":{"bram":%s,"dep_id":%s,"post_write_latency":%s,'
    '"wait_cycles":%d},"cat":"consumer-read","dur":%d,"name":%s,'
    '"ph":"X","pid":%d,"tid":%d,"ts":%d}'
)
#: An instant: its args, the run of keys its kind and source fix
#: (``_INSTANT_TRACK``), its timestamp.
_INSTANT = '{"args":{%s},%s,"ts":%d}'
_INSTANT_TRACK = '"cat":%s,"name":%s,"ph":"i","pid":%d,"s":"t","tid":%d'
#: The args of a guard instant, the most frequent shape.
_GUARD_ARGS = '"address":%d,"client":%s,"dep_id":%s,"value":%d'
#: An instant's optional args, in key order, by event-record field.
_INSTANT_ARGS = (
    ('"address":', 5),
    ('"client":', 3),
    ('"dep_id":', 6),
    ('"detail":', 8),
    ('"port":', 4),
    ('"value":', 7),
)
#: The telemetry record's most frequent numbers take ``%d``; an event
#: holding any other number goes through its template's ``_ANY`` form,
#: whose every slot takes JSON text.
_DEPENDENCY_ANY, _READ_ANY, _INSTANT_ANY = (
    template.replace("%d", "%s") for template in (_DEPENDENCY, _READ, _INSTANT)
)


def dumps_chrome_trace(telemetry: Telemetry) -> str:
    """Render the telemetry record as trace-event JSON text.

    Dependency spans and consumer reads become complete ("X") events on
    per-controller and per-thread tracks, the instant kinds of the event
    record instants ("i").  Each event's text is formatted straight from
    the records and checked by :func:`validate_chrome_trace`'s per-event
    rules as it is written; the pieces are joined once.  The text is
    what ``json.dumps(document, sort_keys=True, separators=(",", ":"))``
    writes, plus a newline."""
    threads = telemetry.thread_names()
    controllers = telemetry.controller_names()
    thread_tid = {name: tid for tid, name in enumerate(threads, start=1)}
    controller_tid = {name: tid for tid, name in enumerate(controllers, start=1)}
    text = _json_text()
    events: list[str] = []
    for pid, label in (
        (THREADS_PID, "threads"),
        (CONTROLLERS_PID, "memory controllers"),
    ):
        _metadata(events, text, "process_name", pid, 0, label)
    for pid, tids in (
        (THREADS_PID, thread_tid),
        (CONTROLLERS_PID, controller_tid),
    ):
        for name, tid in tids.items():
            _metadata(events, text, "thread_name", pid, tid, name)

    check = _check_event
    append = events.append

    # Dependency-lifecycle spans on the controller tracks.
    for span in telemetry.spans.spans:
        write = span.write_cycle
        reads = span.reads
        complete = span.complete_cycle is not None
        end = span.complete_cycle if complete else span.last_activity
        dur = max(0, end - write)
        name = f"{span.dep_id}#{span.instance}"
        tid = controller_tid.get(span.bram, 0)
        check(len(events), name, "X", CONTROLLERS_PID, tid, write, dur, None)
        latencies = [text(read.grant_cycle - write) for read in reads]
        fields = (
            "true" if complete else "false",
            text(span.expected_reads),
            ",".join(latencies),
            text(span.producer),
            len(reads),
            dur,
            _quote(name),  # one per span: not worth remembering
            CONTROLLERS_PID,
            tid,
            write,
        )
        if type(write) is int and type(dur) is int:
            append(_DEPENDENCY % fields)
        else:
            append(_DEPENDENCY_ANY % _number_texts(fields, text))
        # Each consumer read: a slice on the reading thread's track,
        # spanning its blocked wait (issue -> grant).
        name = f"read {span.dep_id}"
        bram, dep_id = text(span.bram), text(span.dep_id)
        read_name = text(name)
        for read, latency in zip(reads, latencies):
            issue = read.issue_cycle
            wait = read.grant_cycle - issue
            dur = max(0, wait)
            tid = thread_tid.get(read.client, 0)
            check(len(events), name, "X", THREADS_PID, tid, issue, dur, None)
            fields = (
                bram, dep_id, latency, wait, dur, read_name, THREADS_PID, tid,
                issue,
            )
            if type(issue) is int and type(wait) is int:
                append(_READ % fields)
            else:
                append(_READ_ANY % _number_texts(fields, text))

    # Instant events for the remaining structured record: a controller
    # name wins over a thread name; anything else lands on track 0.
    tracks = {name: (THREADS_PID, tid) for name, tid in thread_tid.items()}
    tracks.update(
        (name, (CONTROLLERS_PID, tid)) for name, tid in controller_tid.items()
    )
    untracked = (CONTROLLERS_PID, 0)
    # (kind, source) -> (pid, tid, the JSON text of the keys they fix)
    instant_tracks: dict[tuple, tuple] = {}
    for record in telemetry.event_records():
        cycle, kind, source, client, port, address, dep_id, value, detail = (
            record
        )
        category = _INSTANT_KINDS.get(kind)
        if category is None:
            continue
        track = instant_tracks.get((kind, source))
        if track is None:
            pid, tid = tracks.get(source, untracked)
            keys = _INSTANT_TRACK % (text(category), text(kind), pid, tid)
            track = instant_tracks[kind, source] = (pid, tid, keys)
        pid, tid, keys = track
        check(len(events), kind, "i", pid, tid, cycle, None, "t")
        if (
            port is None
            and detail is None
            and type(address) is int
            and type(value) is int
            and type(client) is str
            and type(dep_id) is str
        ):
            args = _GUARD_ARGS % (address, text(client), text(dep_id), value)
        elif address is client is port is dep_id is value is detail is None:
            args = ""
        else:
            args = ",".join(
                [
                    key + text(record[field])
                    for key, field in _INSTANT_ARGS
                    if record[field] is not None
                ]
            )
        if type(cycle) is int:
            append(_INSTANT % (args, keys, cycle))
        else:
            append(_INSTANT_ANY % (args, keys, text(cycle)))

    return _document(events, text, telemetry.cycles_observed, "repro.obs")


def chrome_trace(telemetry: Telemetry) -> dict:
    """The trace-event document :func:`dumps_chrome_trace` writes."""
    return json.loads(dumps_chrome_trace(telemetry))


# -- profiler trace --------------------------------------------------------------------

#: pid of the profiler's wait-state track group.
PROFILE_PID = 3

# A profile event's cycles come from the ledger and take JSON text; its
# pid, tid and counts are the exporter's own ints.
#: A wait-state slice: its args (none, or ``_SITE_ARGS``), then its keys.
_SEGMENT = (
    '{"args":{%s},"cat":"wait-state","dur":%s,"name":%s,"ph":"X","pid":%d,'
    '"tid":%d,"ts":%s}'
)
_SITE_ARGS = '"port":%s,"site":%s'
#: The wait states of a counter sample, in key order.
_COUNTED = tuple(sorted(WAIT_STATES))
_COUNTER_NAME = "threads per wait state"
#: A counter sample: how many threads sit in each state of ``_COUNTED``.
_COUNTER = (
    '{"args":{' + ",".join(_quote(state) + ":%d" for state in _COUNTED)
    + '},"name":' + _quote(_COUNTER_NAME) + ',"ph":"C","pid":%d,"tid":0,"ts":%s}'
)


def dumps_profile_chrome_trace(profiler) -> str:
    """Render the attribution timeline as trace-event JSON text: one "X"
    slice per run-length segment on per-thread tracks, plus a per-state
    "C" counter track sampled at every segment boundary.  Written as
    :func:`dumps_chrome_trace` writes its trace, and deterministic:
    segments and boundaries derive purely from the ledger."""
    timelines = profiler.ledger.timelines
    threads = sorted(timelines)
    text = _json_text()
    events: list[str] = []
    _metadata(
        events, text, "process_name", PROFILE_PID, 0, "wait-state attribution"
    )
    for tid, name in enumerate(threads, start=1):
        _metadata(events, text, "thread_name", PROFILE_PID, tid, name)

    check = _check_event
    append = events.append
    for tid, name in enumerate(threads, start=1):
        for segment in timelines[name]:
            state, start, length = segment.state, segment.start, segment.length
            check(len(events), state, "X", PROFILE_PID, tid, start, length, None)
            args = ""
            if segment.site != NO_SITE:
                args = _SITE_ARGS % (text(segment.port), text(segment.site))
            append(
                _SEGMENT
                % (args, text(length), text(state), PROFILE_PID, tid, text(start))
            )
    for boundary, counts in _state_counts(timelines[name] for name in threads):
        check(len(events), _COUNTER_NAME, "C", PROFILE_PID, 0, boundary, None, None)
        append(_COUNTER % (*counts, PROFILE_PID, text(boundary)))
    return _document(
        events, text, profiler.cycles_observed, "repro.obs.profiler"
    )


def profile_chrome_trace(profiler) -> dict:
    """The document :func:`dumps_profile_chrome_trace` writes."""
    return json.loads(dumps_profile_chrome_trace(profiler))


def _state_counts(timelines):
    """Yield ``(boundary, counts)`` for each segment boundary in
    ascending order, ``counts`` holding the number of segments covering
    it (``start <= boundary < end``) for each state of ``_COUNTED``: one
    sweep over the segments sorted by start and by end, keeping a
    running count per state."""
    segments = [segment for timeline in timelines for segment in timeline]
    starts = sorted(segments, key=attrgetter("start"))
    ends = sorted(segments, key=attrgetter("end"))
    boundaries = sorted(
        {cycle for segment in segments for cycle in (segment.start, segment.end)}
    )
    live = dict.fromkeys(_COUNTED, 0)
    opened = closed = 0
    for boundary in boundaries:
        while opened < len(starts) and starts[opened].start <= boundary:
            live[starts[opened].state] += 1
            opened += 1
        while closed < len(ends) and ends[closed].end <= boundary:
            live[ends[closed].state] -= 1
            closed += 1
        yield boundary, tuple(live.values())


# -- Prometheus ------------------------------------------------------------------------


def prometheus_text(telemetry: Telemetry) -> str:
    return telemetry.finalize().render_prometheus()


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


def dumps_summary_csv(telemetry: Telemetry) -> str:
    """Flat CSV of every metric sample: name, type, labels, value, in
    the ``csv`` module's default dialect (rows end in CRLF)."""
    registry = telemetry.finalize()
    out = io.StringIO()
    writer = csv.writer(out)
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
                writer.writerow([metric.name, metric.type_name, labels, value])
    return out.getvalue()


# -- benchmark artifact ----------------------------------------------------------------


def write_bench_json(path: str, payload: dict) -> None:
    """Write a ``BENCH_*.json`` artifact with stable formatting."""
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
