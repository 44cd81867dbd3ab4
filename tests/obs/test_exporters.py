"""Tests for the trace/metrics/summary exporters and their determinism."""

import csv
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Organization
from repro.obs.attribution import NO_SITE, WAIT_STATES, Segment
from repro.obs.spans import ConsumerRead, DependencySpan
from repro.obs.exporters import (
    chrome_trace,
    dumps_chrome_trace,
    dumps_profile_chrome_trace,
    dumps_summary,
    dumps_summary_csv,
    profile_chrome_trace,
    prometheus_text,
    summary_dict,
    validate_chrome_trace,
    write_bench_json,
)
from tests.obs.conftest import run_forwarding


class TestChromeTrace:
    def test_document_validates(self, arbitrated_run):
        __, telemetry = arbitrated_run
        document = chrome_trace(telemetry)
        validate_chrome_trace(document)  # must not raise
        assert document["otherData"]["cycles"] == 400

    def test_span_and_read_events_present(self, arbitrated_run):
        __, telemetry = arbitrated_run
        events = chrome_trace(telemetry)["traceEvents"]
        spans = [e for e in events if e.get("cat") == "dependency"]
        reads = [e for e in events if e.get("cat") == "consumer-read"]
        assert spans and reads
        for event in spans + reads:
            assert event["ph"] == "X" and event["dur"] >= 0
        metadata = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert "threads" in names and "memory controllers" in names

    def test_instant_events_scoped(self, arbitrated_run):
        __, telemetry = arbitrated_run
        events = chrome_trace(telemetry)["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert instants
        assert all(e["s"] == "t" for e in instants)

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "?", "pid": 0,
                                  "tid": 0, "ts": 0}]}
            )
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 0,
                                  "tid": 0, "ts": 0}]}  # missing dur
            )
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "i", "s": "?",
                                  "pid": 0, "tid": 0, "ts": 0}]}
            )

    def test_json_round_trip(self, arbitrated_run, tmp_path):
        __, telemetry = arbitrated_run
        path = tmp_path / "trace.json"
        path.write_text(dumps_chrome_trace(telemetry))
        document = json.loads(path.read_text())
        validate_chrome_trace(document)


def _metadata(name, pid, tid, label):
    return {"args": {"name": label}, "name": name, "ph": "M", "pid": pid,
            "tid": tid, "ts": 0}


def _instant(cat, name, pid, tid, ts, **args):
    return {"args": args, "cat": cat, "name": name, "ph": "i", "pid": pid,
            "s": "t", "tid": tid, "ts": ts}


class TestChromeTraceText:
    """The emitted text, against a hand-written document for records
    holding floats, bools, big ints, escapes and non-ASCII text."""

    SPANS = [
        DependencySpan("bram0", "d", 0, "t0", 2.5, None,
                       [ConsumerRead("t1", 1, 4.0)]),
        DependencySpan("bram0", "d\u00e9", 1, "t0", 5, 5,
                       [ConsumerRead("t1", 5, 7), ConsumerRead("ghost", 6, 9)],
                       2, 9),
        DependencySpan("bram0", "d", 1, "t1", True, None,
                       [ConsumerRead("t0", False, 3)]),
    ]
    RECORDS = [
        (3, "dep-armed", "bram0", "t1", None, 9, "d", 2, None),
        (4, "override", "bram0", None, None, None, None, None, None),
        (True, "override", "t1", None, None, None, None, None, None),
        (4.5, "chain-event", "t0", "t1", None, None, 'd\n"x', None, None),
        (6, "watchdog", "system", "t1", None, None, "d", True,
         "read-timeout \u2192 warned"),
        (7, "grant", "bram0", "t0", "A", 2**70, "d", 0, None),
        (8, "dep-complete", "bram0", None, None, None, "d", None, None),
        (9, "dep-decrement", "bram0", "t1", None, 9, "d", 1.0, None),
        (10, "round-complete", "t1", None, None, None, None, 3, None),
    ]
    EVENTS = [
        _metadata("process_name", 1, 0, "threads"),
        _metadata("process_name", 2, 0, "memory controllers"),
        _metadata("thread_name", 1, 1, "t0"),
        _metadata("thread_name", 1, 2, "t1"),
        _metadata("thread_name", 2, 1, "bram0"),
        {"args": {"complete": False, "expected_reads": None,
                  "post_write_latencies": [1.5], "producer": "t0",
                  "reads": 1},
         "cat": "dependency", "dur": 1.5, "name": "d#0", "ph": "X",
         "pid": 2, "tid": 1, "ts": 2.5},
        {"args": {"bram": "bram0", "dep_id": "d", "post_write_latency": 1.5,
                  "wait_cycles": 3.0},
         "cat": "consumer-read", "dur": 3.0, "name": "read d", "ph": "X",
         "pid": 1, "tid": 2, "ts": 1},
        {"args": {"complete": True, "expected_reads": 2,
                  "post_write_latencies": [2, 4], "producer": "t0",
                  "reads": 2},
         "cat": "dependency", "dur": 4, "name": "d\u00e9#1", "ph": "X",
         "pid": 2, "tid": 1, "ts": 5},
        {"args": {"bram": "bram0", "dep_id": "d\u00e9",
                  "post_write_latency": 2, "wait_cycles": 2},
         "cat": "consumer-read", "dur": 2, "name": "read d\u00e9", "ph": "X",
         "pid": 1, "tid": 2, "ts": 5},
        {"args": {"bram": "bram0", "dep_id": "d\u00e9",
                  "post_write_latency": 4, "wait_cycles": 3},
         "cat": "consumer-read", "dur": 3, "name": "read d\u00e9", "ph": "X",
         "pid": 1, "tid": 0, "ts": 6},
        {"args": {"complete": False, "expected_reads": None,
                  "post_write_latencies": [2], "producer": "t1",
                  "reads": 1},
         "cat": "dependency", "dur": 2, "name": "d#1", "ph": "X",
         "pid": 2, "tid": 1, "ts": True},
        {"args": {"bram": "bram0", "dep_id": "d", "post_write_latency": 2,
                  "wait_cycles": 3},
         "cat": "consumer-read", "dur": 3, "name": "read d", "ph": "X",
         "pid": 1, "tid": 1, "ts": False},
        _instant("guard", "dep-armed", 2, 1, 3, address=9, client="t1",
                 dep_id="d", value=2),
        _instant("override", "override", 2, 1, 4),
        _instant("override", "override", 1, 2, True),
        _instant("chain", "chain-event", 1, 1, 4.5, client="t1",
                 dep_id='d\n"x'),
        _instant("watchdog", "watchdog", 2, 0, 6, client="t1", dep_id="d",
                 detail="read-timeout \u2192 warned", value=True),
        _instant("request", "grant", 2, 1, 7, address=2**70, client="t0",
                 dep_id="d", port="A", value=0),
        _instant("guard", "dep-decrement", 2, 1, 9, address=9, client="t1",
                 dep_id="d", value=1.0),
        _instant("progress", "round-complete", 1, 2, 10, value=3),
    ]

    def test_values_are_written_as_json_dumps_writes_them(self):
        telemetry = SimpleNamespace(
            thread_names=lambda: ["t0", "t1"],
            controller_names=lambda: ["bram0"],
            spans=SimpleNamespace(spans=self.SPANS),
            event_records=lambda: self.RECORDS,
            cycles_observed=12,
        )
        document = {
            "displayTimeUnit": "ms",
            "otherData": {"cycles": 12, "exporter": "repro.obs",
                          "time_unit": "1 cycle = 1 us"},
            "traceEvents": self.EVENTS,
        }
        expected = json.dumps(document, sort_keys=True, separators=(",", ":"))
        assert dumps_chrome_trace(telemetry) == expected + "\n"


class TestDeterminism:
    def test_same_seed_byte_identical_exports(self):
        def exports():
            __, telemetry = run_forwarding(cycles=300)
            return (
                dumps_chrome_trace(telemetry),
                prometheus_text(telemetry),
                dumps_summary(telemetry),
            )

        assert exports() == exports()

    def test_different_seed_differs(self):
        __, a = run_forwarding(cycles=300, seed=1)
        __, b = run_forwarding(cycles=300, seed=2)
        assert dumps_chrome_trace(a) != dumps_chrome_trace(b)


class TestPrometheus:
    def test_text_exposition_shape(self, arbitrated_run):
        __, telemetry = arbitrated_run
        text = prometheus_text(telemetry)
        assert "# TYPE sim_requests_granted_total counter" in text
        assert "# TYPE sim_dependency_wait_cycles histogram" in text
        assert "sim_dependency_wait_cycles_bucket" in text
        assert 'le="+Inf"' in text
        assert "sim_cycles 400" in text


class TestSummary:
    def test_schema_and_sections(self, arbitrated_run):
        sim, telemetry = arbitrated_run
        summary = summary_dict(telemetry)
        assert summary["schema"] == "repro.obs.summary/1"
        assert summary["cycles"] == 400
        assert summary["spans"]["complete"] <= summary["spans"]["total"]
        assert set(summary["threads"]) == set(sim.executors)
        assert set(summary["controllers"]) == set(sim.controllers)
        assert summary["dependencies"]
        for stats in summary["dependencies"].values():
            assert {"spans", "reads", "observed"} <= set(stats)
        assert "sim_cycles" in summary["metrics"]

    def test_summary_json_is_valid(self, arbitrated_run, tmp_path):
        __, telemetry = arbitrated_run
        path = tmp_path / "summary.json"
        path.write_text(dumps_summary(telemetry))
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro.obs.summary/1"

    def test_summary_csv_rows(self, arbitrated_run, tmp_path):
        __, telemetry = arbitrated_run
        path = tmp_path / "metrics.csv"
        path.write_text(dumps_summary_csv(telemetry), newline="")
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["metric", "type", "labels", "value"]
        assert len(rows) > 10
        names = {row[0] for row in rows[1:]}
        assert "sim_requests_granted_total" in names
        assert "sim_dependency_wait_cycles_sum" in names


class TestOtherOrganizations:
    def test_event_driven_exports(self, event_driven_run):
        __, telemetry = event_driven_run
        validate_chrome_trace(chrome_trace(telemetry))
        assert "sim_chain_events_total" in prometheus_text(telemetry)

    def test_lock_baseline_exports(self, lock_baseline_run):
        __, telemetry = lock_baseline_run
        validate_chrome_trace(chrome_trace(telemetry))
        assert summary_dict(telemetry)["spans"]["complete"] > 0


class TestBenchJson:
    def test_write_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_sim.json"
        write_bench_json(str(path), {"b": 2, "a": 1})
        text = path.read_text()
        assert json.loads(text) == {"a": 1, "b": 2}
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


def _counter_track_oracle(timelines):
    """The original quadratic counter track: every segment rescanned for
    every boundary."""
    segments = [seg for name in sorted(timelines) for seg in timelines[name]]
    boundaries = {seg.start for seg in segments} | {seg.end for seg in segments}
    track = []
    for boundary in sorted(boundaries):
        counts = {state: 0 for state in WAIT_STATES}
        for segment in segments:
            if segment.start <= boundary < segment.end:
                counts[segment.state] += 1
        track.append((boundary, counts))
    return track


_segments = st.lists(
    st.builds(
        Segment,
        thread=st.sampled_from(["t0", "t1", "t2"]),
        state=st.sampled_from(WAIT_STATES),
        site=st.just(NO_SITE),
        port=st.just(NO_SITE),
        start=st.integers(min_value=0, max_value=60),
        length=st.integers(min_value=0, max_value=25),
    ),
    max_size=30,
)


class TestProfileCounterTrack:
    @settings(max_examples=200, deadline=None)
    @given(segments=_segments)
    def test_sweep_matches_rescan_oracle(self, segments):
        timelines: dict = {}
        for segment in segments:
            timelines.setdefault(segment.thread, []).append(segment)
        profiler = SimpleNamespace(
            ledger=SimpleNamespace(timelines=timelines), cycles_observed=0
        )
        document = profile_chrome_trace(profiler)
        track = [
            (event["ts"], event["args"])
            for event in document["traceEvents"]
            if event["ph"] == "C"
        ]
        assert track == _counter_track_oracle(timelines)


def _profile_document_oracle(timelines, cycles):
    """The profile trace document as a dict, built the way the exporter
    built it before it wrote its text event by event."""
    threads = sorted(timelines)
    events = [_metadata("process_name", 3, 0, "wait-state attribution")]
    events += [
        _metadata("thread_name", 3, tid, name)
        for tid, name in enumerate(threads, start=1)
    ]
    for tid, name in enumerate(threads, start=1):
        for segment in timelines[name]:
            args = {}
            if segment.site != NO_SITE:
                args = {"site": segment.site, "port": segment.port}
            events.append(
                {"args": args, "cat": "wait-state", "dur": segment.length,
                 "name": segment.state, "ph": "X", "pid": 3, "tid": tid,
                 "ts": segment.start}
            )
    events += [
        {"args": counts, "name": "threads per wait state", "ph": "C",
         "pid": 3, "tid": 0, "ts": boundary}
        for boundary, counts in _counter_track_oracle(timelines)
    ]
    return {
        "displayTimeUnit": "ms",
        "otherData": {"cycles": cycles, "exporter": "repro.obs.profiler",
                      "time_unit": "1 cycle = 1 us"},
        "traceEvents": events,
    }


# Starts are whole or half cycles and lengths whole, so a start or end
# that is a float never equals one that is an int: each boundary has
# one JSON spelling.
_text_segments = st.lists(
    st.builds(
        Segment,
        thread=st.sampled_from(["t0", "t\u00e9", 'q"x']),
        state=st.sampled_from(WAIT_STATES),
        site=st.sampled_from([NO_SITE, "bram0", "bram\u2192"]),
        port=st.sampled_from(["A", "C\n"]),
        start=st.one_of(
            st.integers(0, 60), st.integers(0, 60).map(lambda c: c + 0.5)
        ),
        length=st.integers(0, 25),
    ),
    max_size=20,
)


class TestProfileTraceText:
    @settings(max_examples=200, deadline=None)
    @given(
        segments=_text_segments,
        cycles=st.one_of(st.integers(0, 2**70), st.floats(0, 1e6)),
    )
    def test_text_is_json_dumps_of_the_dict_document(self, segments, cycles):
        timelines: dict = {}
        for segment in segments:
            timelines.setdefault(segment.thread, []).append(segment)
        profiler = SimpleNamespace(
            ledger=SimpleNamespace(timelines=timelines), cycles_observed=cycles
        )
        document = _profile_document_oracle(timelines, cycles)
        expected = json.dumps(document, sort_keys=True, separators=(",", ":"))
        assert dumps_profile_chrome_trace(profiler) == expected + "\n"
