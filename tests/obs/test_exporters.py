"""Tests for the trace/metrics/summary exporters and their determinism."""

import csv
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Organization
from repro.obs.attribution import NO_SITE, WAIT_STATES, Segment
from repro.obs.exporters import (
    chrome_trace,
    dumps_chrome_trace,
    dumps_summary,
    profile_chrome_trace,
    prometheus_text,
    summary_dict,
    validate_chrome_trace,
    write_bench_json,
    write_chrome_trace,
    write_prometheus,
    write_summary_csv,
    write_summary_json,
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
        write_chrome_trace(telemetry, str(path))
        document = json.loads(path.read_text())
        validate_chrome_trace(document)


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

    def test_write(self, arbitrated_run, tmp_path):
        __, telemetry = arbitrated_run
        path = tmp_path / "metrics.prom"
        write_prometheus(telemetry, str(path))
        assert path.read_text() == prometheus_text(telemetry)


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
        write_summary_json(telemetry, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro.obs.summary/1"

    def test_summary_csv_rows(self, arbitrated_run, tmp_path):
        __, telemetry = arbitrated_run
        path = tmp_path / "metrics.csv"
        write_summary_csv(telemetry, str(path))
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
