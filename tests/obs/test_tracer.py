"""Tests for the Telemetry tracer: wiring, events, spans, metrics."""

import pytest

from repro.core import Organization
from repro.faults.models import ProducerStall
from repro.flow import build_simulation, compile_design
from repro.obs import EventKind, Telemetry, attach_telemetry
from tests.conftest import FIGURE1_SOURCE
from tests.obs.conftest import run_forwarding


class TestWiring:
    def test_attach_sets_all_seams(self):
        design = compile_design(FIGURE1_SOURCE)
        sim = build_simulation(design)
        telemetry = sim.attach_telemetry()
        assert sim.telemetry is telemetry
        assert sim.kernel.observer is telemetry
        assert sim.kernel.context["telemetry"] is telemetry
        assert all(
            c.observer == telemetry for c in sim.controllers.values()
        )

    def test_disabled_path_has_no_observer(self):
        design = compile_design(FIGURE1_SOURCE)
        sim = build_simulation(design)
        assert sim.telemetry is None
        assert sim.kernel.observer is None
        assert all(c.observer is None for c in sim.controllers.values())
        sim.run(50)  # runs clean with every seam disabled

    def test_attach_telemetry_helper(self):
        design = compile_design(FIGURE1_SOURCE)
        sim = build_simulation(design)
        telemetry = attach_telemetry(sim, trace_level="full")
        assert sim.telemetry is telemetry
        assert telemetry.trace_level == "full"

    def test_invalid_trace_level_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(trace_level="everything")

    def test_watchdog_wired_either_order(self):
        for telemetry_first in (True, False):
            design = compile_design(FIGURE1_SOURCE)
            sim = build_simulation(design)
            if telemetry_first:
                telemetry = sim.attach_telemetry()
                watchdog = sim.attach_watchdog(policy="warn-continue")
            else:
                watchdog = sim.attach_watchdog(policy="warn-continue")
                telemetry = sim.attach_telemetry()
            assert watchdog.observer is telemetry


class TestEventsAndSpans:
    def test_cycles_observed(self, arbitrated_run):
        __, telemetry = arbitrated_run
        assert telemetry.cycles_observed == 400

    def test_arbitrated_spans_complete(self, arbitrated_run):
        __, telemetry = arbitrated_run
        spans = telemetry.spans.complete_spans()
        assert spans
        for span in spans:
            assert span.reads, "complete span with no consumer reads"
            assert span.complete_cycle >= span.write_cycle
            # deplist guard arms in the same arbitration cycle as the write
            assert span.armed_cycle == span.write_cycle

    def test_event_driven_spans_deterministic(self, event_driven_run):
        __, telemetry = event_driven_run
        stats = telemetry.spans.wait_statistics()
        assert stats and all(s["observed"] for s in stats.values())
        # §3.2: every span of a dependency replays the same post-write
        # latency sequence — the chained schedule is compile-time fixed.
        by_dep = {}
        for span in telemetry.spans.complete_spans():
            by_dep.setdefault((span.bram, span.dep_id), set()).add(
                tuple(span.post_write_latencies())
            )
        assert by_dep
        for sequences in by_dep.values():
            assert len(sequences) == 1

    def test_lock_baseline_spans(self, lock_baseline_run):
        __, telemetry = lock_baseline_run
        assert telemetry.spans.complete_spans()
        assert telemetry.events_of_kind(EventKind.DEP_ARMED)
        assert telemetry.events_of_kind(EventKind.DEP_DECREMENT)

    def test_dep_lifecycle_event_order(self, arbitrated_run):
        __, telemetry = arbitrated_run
        kinds = [
            e.kind
            for e in telemetry.events
            if e.kind
            in (EventKind.DEP_ARMED, EventKind.DEP_COMPLETE)
        ]
        assert kinds[0] == EventKind.DEP_ARMED
        assert EventKind.DEP_COMPLETE in kinds

    def test_round_complete_events_full_level(self):
        __, telemetry = run_forwarding(cycles=400, trace_level="full")
        rounds = telemetry.events_of_kind(EventKind.ROUND_COMPLETE)
        assert rounds
        assert all(e.value >= 1 for e in rounds)

    def test_round_complete_not_traced_at_deps_level(self, arbitrated_run):
        __, telemetry = arbitrated_run
        assert not telemetry.events_of_kind(EventKind.ROUND_COMPLETE)

    def test_full_level_records_submits(self):
        __, telemetry = run_forwarding(cycles=100, trace_level="full")
        assert telemetry.events_of_kind(EventKind.SUBMIT)
        __, deps_only = run_forwarding(cycles=100)
        assert not deps_only.events_of_kind(EventKind.SUBMIT)
        assert len(deps_only.events) < len(telemetry.events)

    def test_describe_mentions_spans(self, arbitrated_run):
        __, telemetry = arbitrated_run
        text = telemetry.describe()
        assert "cycles" in text and "spans" in text


class TestMetrics:
    def test_finalize_is_idempotent(self, arbitrated_run):
        __, telemetry = arbitrated_run
        first = telemetry.finalize().render_prometheus()
        second = telemetry.finalize().render_prometheus()
        assert first == second

    def test_core_metrics_present(self, arbitrated_run):
        __, telemetry = arbitrated_run
        registry = telemetry.finalize()
        granted = registry.get("sim_requests_granted_total")
        assert granted is not None and granted.samples()
        waits = registry.get("sim_dependency_wait_cycles")
        assert waits is not None and waits.samples()
        cycles = registry.get("sim_cycles")
        assert cycles.value() == 400
        spans = registry.get("sim_dependency_spans_total")
        assert any(
            key[-1] == "complete" for key, __ in spans.samples()
        )

    def test_thread_metrics_match_executor_stats(self, arbitrated_run):
        sim, telemetry = arbitrated_run
        registry = telemetry.finalize()
        rounds = registry.get("sim_thread_rounds_total")
        for name, executor in sim.executors.items():
            if executor.stats.rounds_completed:
                assert (
                    rounds.value(thread=name)
                    == executor.stats.rounds_completed
                )

    def test_tx_message_counts(self, arbitrated_run):
        sim, telemetry = arbitrated_run
        registry = telemetry.finalize()
        messages = registry.get("sim_tx_messages_total")
        total = sum(value for __, value in messages.samples())
        assert total == sum(tx.count for tx in sim.tx.values())

    def test_chain_events_only_event_driven(
        self, arbitrated_run, event_driven_run
    ):
        __, arb = arbitrated_run
        __, evd = event_driven_run
        assert not arb.finalize().get("sim_chain_events_total").samples()
        assert evd.finalize().get("sim_chain_events_total").samples()
        assert evd.events_of_kind(EventKind.CHAIN_EVENT)


class TestWatchdogCapture:
    def test_watchdog_events_and_recoveries(self):
        from repro.net import (
            BernoulliTraffic,
            demo_table,
            forwarding_functions,
            forwarding_source,
        )

        design = compile_design(forwarding_source(4))
        sim = build_simulation(
            design, functions=forwarding_functions(demo_table())
        )
        telemetry = sim.attach_telemetry()
        watchdog = sim.attach_watchdog(
            policy="break-dependency", read_timeout=32
        )
        sim.inject_faults([ProducerStall(at_cycle=10, client="classify")])
        generator = BernoulliTraffic(rate=0.2, seed=3)
        sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
        sim.run(400)

        assert watchdog.tripped
        events = telemetry.events_of_kind(EventKind.WATCHDOG)
        assert len(events) == len(watchdog.events)
        recoveries = telemetry.events_of_kind(EventKind.RECOVERY)
        assert len(recoveries) == len(watchdog.degradations)

        registry = telemetry.finalize()
        fired = registry.get("sim_watchdog_events_total")
        assert sum(v for __, v in fired.samples()) == len(watchdog.events)
        recovered = registry.get("sim_watchdog_recoveries_total")
        assert recovered.value() == len(watchdog.degradations)
