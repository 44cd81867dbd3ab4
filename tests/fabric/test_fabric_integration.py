"""End-to-end fabric behaviour through the compile/simulate flow.

The headline acceptance properties:

* the Figure-1 3-thread program produces **identical consumer-observed
  values** on a 1-bank and a 4-bank fabric, for both the §3.1 arbitrated
  and §3.2 event-driven organizations;
* with dependency entries spread across banks, the cross-bank router
  **never releases a consumer read before the producer write** (checked
  against the router's event log).
"""

import pytest

from repro.core import Organization
from repro.fabric import FabricConfig
from repro.flow import build_simulation, compile_design


def consumer_values(sim):
    """The values each consumer thread observed (its whole environment)."""
    return {
        thread: dict(sim.executors[thread].env) for thread in ("t2", "t3")
    }


def run_fabric(source, organization, banks, cycles=400, **kwargs):
    design = compile_design(
        source, organization=organization, num_banks=banks, **kwargs
    )
    sim = build_simulation(design)
    sim.run(cycles)
    return design, sim


class TestValueEquivalence:
    @pytest.mark.parametrize(
        "organization",
        [Organization.ARBITRATED, Organization.EVENT_DRIVEN],
        ids=["arbitrated", "event_driven"],
    )
    def test_figure1_matches_between_1_and_4_banks(
        self, figure1_source, organization
    ):
        __, one = run_fabric(figure1_source, organization, banks=1)
        __, four = run_fabric(figure1_source, organization, banks=4)
        assert consumer_values(one) == consumer_values(four)

    @pytest.mark.parametrize(
        "organization",
        [Organization.ARBITRATED, Organization.EVENT_DRIVEN],
        ids=["arbitrated", "event_driven"],
    )
    def test_fabric_matches_the_single_controller_flow(
        self, figure1_source, organization
    ):
        design = compile_design(figure1_source, organization=organization)
        baseline = build_simulation(design)
        baseline.run(400)
        __, fabric = run_fabric(figure1_source, organization, banks=4)
        assert consumer_values(fabric) == consumer_values(baseline)

    def test_spread_dep_home_still_agrees(self, figure1_source):
        design = compile_design(figure1_source)
        baseline = build_simulation(design)
        baseline.run(400)
        __, fabric = run_fabric(
            figure1_source,
            Organization.ARBITRATED,
            banks=4,
            dep_home="spread",
        )
        assert consumer_values(fabric) == consumer_values(baseline)

    def test_range_sharding_agrees(self, figure1_source):
        __, interleaved = run_fabric(
            figure1_source, Organization.ARBITRATED, banks=2
        )
        __, ranged = run_fabric(
            figure1_source,
            Organization.ARBITRATED,
            banks=2,
            shard_policy="range",
        )
        assert consumer_values(interleaved) == consumer_values(ranged)


class TestCrossBankGuards:
    def test_spread_creates_cross_bank_dependencies(self, figure1_source):
        design, __ = run_fabric(
            figure1_source,
            Organization.ARBITRATED,
            banks=4,
            dep_home="spread",
            cycles=0,
        )
        assert design.fabric.cross_bank_count == 1
        routed = design.fabric.routed_deps[0]
        assert routed.home_bank != routed.data_bank

    @pytest.mark.parametrize(
        "organization",
        [
            Organization.ARBITRATED,
            Organization.EVENT_DRIVEN,
            Organization.LOCK_BASELINE,
        ],
        ids=["arbitrated", "event_driven", "lock_baseline"],
    )
    def test_guards_never_release_a_read_before_the_write(
        self, figure1_source, organization
    ):
        __, sim = run_fabric(
            figure1_source, organization, banks=4, dep_home="spread"
        )
        fabric = sim.controllers["fabric"]
        router = fabric.router
        # The router actually carried traffic...
        assert router.stats.writes_routed > 0
        assert router.stats.reads_routed > 0
        # ...and its event log shows no read escaping ahead of its write.
        assert router.verify_guard_ordering() == []

    def test_address_dep_home_routes_nothing(self, figure1_source):
        __, sim = run_fabric(figure1_source, Organization.ARBITRATED, banks=4)
        router = sim.controllers["fabric"].router
        assert len(router) == 0
        assert router.stats.writes_routed == 0


class TestFabricProgress:
    def test_all_threads_make_rounds(self, figure1_source):
        __, sim = run_fabric(figure1_source, Organization.ARBITRATED, banks=2)
        for executor in sim.executors.values():
            assert executor.stats.rounds_completed > 0

    def test_link_latency_slows_but_does_not_change_values(
        self, figure1_source
    ):
        __, fast = run_fabric(
            figure1_source, Organization.ARBITRATED, banks=2, link_latency=1
        )
        __, slow = run_fabric(
            figure1_source, Organization.ARBITRATED, banks=2, link_latency=5
        )
        assert consumer_values(fast) == consumer_values(slow)
        fast_rounds = sum(
            e.stats.rounds_completed for e in fast.executors.values()
        )
        slow_rounds = sum(
            e.stats.rounds_completed for e in slow.executors.values()
        )
        assert slow_rounds < fast_rounds

    def test_fabric_stats_shape(self, figure1_source):
        __, sim = run_fabric(figure1_source, Organization.ARBITRATED, banks=2)
        stats = sim.controllers["fabric"].fabric_stats()
        assert set(stats) == {"banks", "crossbar", "router"}
        assert set(stats["banks"]) == {"bank0", "bank1"}
        assert stats["crossbar"]["forwarded"] >= stats["crossbar"]["delivered"]


class TestCompileValidation:
    def test_unknown_dep_home_rejected(self, figure1_source):
        with pytest.raises(ValueError, match="dep_home"):
            compile_design(figure1_source, num_banks=2, dep_home="everywhere")

    @pytest.mark.parametrize(
        "config, match",
        [
            ({"link_latency": -1}, "link latency"),
            ({"batch_size": 0}, "batch size"),
        ],
    )
    def test_impossible_crossbar_rejected_at_compile_time(
        self, figure1_source, config, match
    ):
        with pytest.raises(ValueError, match=match):
            FabricConfig(num_banks=2, **config)
        with pytest.raises(ValueError, match=match):
            compile_design(figure1_source, num_banks=2, **config)

    def test_zero_link_latency_is_legal(self, figure1_source):
        design = compile_design(figure1_source, num_banks=2, link_latency=0)
        assert design.fabric.config.link_latency == 0

    def test_fabric_reports_need_fabric_mode(self, figure1_source):
        design = compile_design(figure1_source)
        with pytest.raises(ValueError, match="num_banks"):
            design.fabric_area_report()
        with pytest.raises(ValueError, match="num_banks"):
            design.fabric_timing_report()

    def test_memory_map_records_fabric_shape(self, figure1_source):
        design = compile_design(figure1_source, num_banks=4)
        assert design.memory_map.fabric_banks == 4
        assert design.memory_map.fabric_policy == "interleaved"
        assert design.memory_map.bram_names == ["fabric"]


class TestFabricEstimates:
    def test_area_grows_monotonically_with_banks(self, figure1_source):
        previous = 0
        for banks in (1, 2, 4, 8):
            design = compile_design(figure1_source, num_banks=banks)
            report = design.fabric_area_report()
            assert report.total.slices > previous
            assert report.total.brams == banks
            previous = report.total.slices

    def test_timing_is_monotone_in_banks(self, figure1_source):
        previous = 0.0
        for banks in (1, 2, 4, 8):
            design = compile_design(figure1_source, num_banks=banks)
            worst = design.fabric_timing_report().worst
            assert worst.period_ns >= previous
            previous = worst.period_ns

    def test_crossbar_deepens_with_banks(self, figure1_source):
        small = compile_design(figure1_source, num_banks=2)
        large = compile_design(figure1_source, num_banks=8)
        __, small_levels = small.crossbar_module.worst_path()
        __, large_levels = large.crossbar_module.worst_path()
        assert large_levels > small_levels

    def test_fabric_renders(self, figure1_source):
        design = compile_design(figure1_source, num_banks=2)
        assert "fabric" in design.fabric_area_report().render()
        assert "fmax" in design.fabric_timing_report().render()


class TestTelemetryIntegration:
    def test_bank_labels_and_routing_events(self, figure1_source):
        design = compile_design(
            figure1_source, num_banks=4, dep_home="spread"
        )
        sim = build_simulation(design)
        telemetry = sim.attach_telemetry()
        sim.run(300)
        registry = telemetry.finalize()
        rendered = registry.render_prometheus()
        assert 'bram="bank0"' in rendered
        assert "sim_fabric_router_events_total" in rendered
        assert "sim_fabric_crossbar_requests_total" in rendered
        assert telemetry.events_of_kind("dep-routed")
        assert telemetry.events_of_kind("dep-notified")
