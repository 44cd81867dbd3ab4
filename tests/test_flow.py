"""Unit tests for the end-to-end flow driver."""

import gc
import weakref

import pytest

from repro.core import Organization
from repro.faults import (
    DeplistCorruption,
    ProducerStall,
    RequestDrop,
    RequestDuplicate,
    SeuBitFlip,
)
from repro.faults.campaign import _trace_rounds
from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.net import BernoulliTraffic, drive_ingress, forwarding_source
from repro.obs import dumps_chrome_trace, summary_dict
from repro.scenarios import catalog
from tests.conftest import make_fanout_source
from tests.obs.test_export_goldens import export_digests

#: One fault of each kind, all inside a 400-cycle run.
ARMED_FAULTS = (
    SeuBitFlip(at_cycle=40, address=9),
    RequestDrop(at_cycle=60, count=2),
    RequestDuplicate(at_cycle=80),
    ProducerStall(at_cycle=120, client="classify", duration=40),
    DeplistCorruption(at_cycle=200, dep_id="fw", base_address=9),
)

#: What a run may carry besides its traffic hook, none of which may
#: leave the finished simulation to the cycle collector.
RUN_ATTACHMENTS = {
    "traffic only": lambda sim: None,
    "watchdog": lambda sim: sim.attach_watchdog(),
    "empty injector": lambda sim: sim.inject_faults([]),
    "armed injector": lambda sim: sim.inject_faults(ARMED_FAULTS),
    "campaign recorder": _trace_rounds,
    "telemetry": lambda sim: sim.attach_telemetry(),
    "full telemetry": lambda sim: sim.attach_telemetry(trace_level="full"),
    "profiler": lambda sim: sim.attach_profiler(),
    "profiler and watchdog": lambda sim: (
        sim.attach_profiler(), sim.attach_watchdog()
    ),
    "telemetry and armed injector": lambda sim: (
        sim.attach_telemetry(), sim.inject_faults(ARMED_FAULTS)
    ),
}

#: The Figure-1 forwarder under every memory organization, and on a
#: four-bank fabric, for the attachment table above.
RUN_DESIGNS = {
    "arbitrated": {"organization": Organization.ARBITRATED},
    "event-driven": {"organization": Organization.EVENT_DRIVEN},
    "lock-baseline": {"organization": Organization.LOCK_BASELINE},
    "fabric": {"num_banks": 4},
}


class TestCompileDesign:
    def test_figure1_compiles(self, figure1_source):
        design = compile_design(figure1_source, name="fig1")
        assert design.name == "fig1"
        assert set(design.fsms) == {"t1", "t2", "t3"}
        assert design.memory_map.bram_count() == 1
        assert list(design.deplists["bram0"].entries)[0].dep_id == "mt1"

    def test_organization_selects_wrapper(self, figure1_source):
        arb = compile_design(
            figure1_source, organization=Organization.ARBITRATED
        )
        ed = compile_design(
            figure1_source, organization=Organization.EVENT_DRIVEN
        )
        lock = compile_design(
            figure1_source, organization=Organization.LOCK_BASELINE
        )
        assert "arbitrated" in arb.wrapper_modules["bram0"].name
        assert "event_driven" in ed.wrapper_modules["bram0"].name
        assert "lock" in lock.wrapper_modules["bram0"].name

    def test_deadlock_rejected_at_compile(self, deadlock_source):
        with pytest.raises(ValueError, match="deadlock"):
            compile_design(deadlock_source)

    def test_deadlock_check_can_be_skipped(self, deadlock_source):
        design = compile_design(deadlock_source, check_deadlock=False)
        assert design.checked is not None

    def test_area_report(self, figure1_source):
        design = compile_design(figure1_source)
        report = design.area_report("bram0")
        assert report.ffs == 66

    def test_timing_report(self, figure1_source):
        design = compile_design(figure1_source)
        report = design.timing_report("bram0")
        assert report.fmax_mhz > 125

    def test_utilization_fits_xc2vp20(self, figure1_source):
        design = compile_design(figure1_source)
        assert design.utilization().fits

    def test_verilog_emission(self, figure1_source):
        design = compile_design(figure1_source)
        text = design.verilog()
        assert "module design" in text
        assert "thread_t1" in text

    def test_hierarchy_rendering(self, figure1_source):
        design = compile_design(figure1_source)
        text = design.hierarchy()
        assert "arbitrated_wrapper" in text

    def test_deplist_entries_parameter(self, figure1_source):
        small = compile_design(figure1_source, deplist_entries=2)
        large = compile_design(figure1_source, deplist_entries=16)
        assert large.area_report("bram0").ffs > small.area_report("bram0").ffs

    @pytest.mark.parametrize("consumers", [2, 4, 8])
    def test_wrapper_params_track_fanout(self, consumers):
        design = compile_design(make_fanout_source(consumers))
        wrapper = design.wrapper_modules["bram0"]
        assert wrapper.name.endswith(f"c{consumers}")

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"optimize": True, "organization": Organization.EVENT_DRIVEN},
            {"channel_synthesis": "fifo", "organization": Organization.LOCK_BASELINE},
            {"num_banks": 4},
        ],
    )
    def test_a_compile_leaves_no_reference_cycles(self, options):
        """Reference counting frees everything a compile allocates, so
        the cycle collector never has to walk a design (it did when the
        FSM builder's expression rewriter was a recursive closure)."""
        gc.collect()
        gc.disable()
        try:
            design = compile_design(forwarding_source(4), **options)
            design.verilog()
            design.utilization()
            for thread in design.fsms:
                design.thread_verilog(thread)
            del design
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBuildSimulation:
    def test_three_organizations_simulate(self, figure1_source):
        for org in Organization:
            design = compile_design(figure1_source, organization=org)
            sim = build_simulation(design)
            result = sim.run(200)
            assert result.cycles_run == 200
            # Every consumer thread must make progress under every org.
            assert sim.executors["t2"].stats.rounds_completed > 0

    def test_interfaces_created(self):
        design = compile_design(forwarding_source(2))
        sim = build_simulation(design)
        assert set(sim.rx) == {"eth_in", "eth_out"}
        assert set(sim.tx) == {"eth_in", "eth_out"}

    def test_executors_share_controllers(self, figure1_source):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        assert set(sim.controllers) == {"bram0"}
        assert len(sim.executors) == 3

    @pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
    def test_a_run_leaves_no_reference_cycles(self, kernel):
        """Reference counting frees a finished run with a traffic hook
        and any one of a watchdog, a fault injector (empty or armed),
        the campaign's round recorder, telemetry and the profiler, on
        every memory organization and on a fabric, after the telemetry
        exported.  It did not on the compiled kernel while the
        generated ``run_span`` closed over its kernel, nor while the
        injector held the controllers that hold its request taps, the
        recorder closed over the simulation, or the controllers held
        the telemetry that holds them."""
        runs = {
            name: (
                compile_design(forwarding_source(2), **options),
                None,
                RUN_ATTACHMENTS,
            )
            for name, options in RUN_DESIGNS.items()
        }
        fanout = catalog.get_scenario("fanout")
        runs["fanout-fifo"] = (
            compile_design(
                fanout.source, name=fanout.name, channel_synthesis="fifo"
            ),
            fanout.functions(),
            {"profiler": RUN_ATTACHMENTS["profiler"]},
        )
        for design, functions, __ in runs.values():
            build_simulation(design, functions, kernel=kernel)  # codegen cache
        gc.collect()
        gc.disable()
        try:
            for design_name, (design, functions, attachments) in runs.items():
                for name, attach in attachments.items():
                    sim = build_simulation(design, functions, kernel=kernel)
                    drive_ingress(sim, rate=0.06)
                    attach(sim)
                    sim.run(400)
                    if sim.telemetry is not None:
                        dumps_chrome_trace(sim.telemetry)
                        summary_dict(sim.telemetry)
                    del sim
                    assert gc.collect() == 0, (design_name, name)
        finally:
            gc.enable()

    @pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
    def test_a_kept_telemetry_outlives_its_run(self, kernel):
        """The telemetry holds what its exports read (controllers,
        executor stats, tx interfaces) and nothing that holds the run:
        dropping the simulation frees its kernel at once, and the kept
        telemetry exports byte for byte what it exported before."""
        design = compile_design(forwarding_source(2), num_banks=4)
        sim = build_simulation(design, kernel=kernel)
        drive_ingress(sim, rate=0.06)
        telemetry = sim.attach_telemetry(trace_level="full", profile=True)
        sim.attach_watchdog(policy="warn-continue")
        sim.run(400)
        before = export_digests(telemetry)
        kernel_ref = weakref.ref(sim.kernel)
        gc.disable()
        try:
            del sim
            assert kernel_ref() is None
        finally:
            gc.enable()
        assert export_digests(telemetry) == before

    def test_drive_ingress_feeds_only_received_interfaces(self):
        """No thread of the forwarder receives from ``eth_out``, so it
        gets no generator: its arrivals only woke the wheel kernel
        (1,894 executed cycles instead of 1,815 over 20k sparse cycles),
        and every output is the same without them."""

        def run(every_rx):
            sim = build_simulation(design, kernel="wheel")
            if every_rx:
                for index, rx in enumerate(sim.rx.values()):
                    generator = BernoulliTraffic(rate=0.004, seed=1 + index)
                    sim.kernel.add_pre_cycle_hook(generator.attach(rx))
            else:
                drive_ingress(sim, rate=0.004)
            sim.run(20_000)
            outputs = (
                {name: tx.messages for name, tx in sim.tx.items()},
                {
                    name: (executor.stats, executor.env)
                    for name, executor in sim.executors.items()
                },
                sim.rx["eth_in"].delivered,
            )
            return sim, outputs

        design = compile_design(forwarding_source(2))
        fed_all, every_outputs = run(every_rx=True)
        fed_received, outputs = run(every_rx=False)
        assert fed_all.rx["eth_out"].backlog == 88
        assert fed_received.rx["eth_out"].backlog == 0
        assert fed_all.kernel.cycles_executed == 1894
        assert fed_received.kernel.cycles_executed == 1815
        assert outputs == every_outputs
        assert outputs[2] == 98
