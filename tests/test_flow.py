"""Unit tests for the end-to-end flow driver."""

import gc

import pytest

from repro.core import Organization
from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.net import drive_ingress, forwarding_source
from tests.conftest import make_fanout_source


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

    def test_dependency_graph_access(self, figure1_source):
        design = compile_design(figure1_source)
        graph = design.dependency_graph()
        assert graph.successors("t1") == ["t2", "t3"]

    def test_deplist_entries_parameter(self, figure1_source):
        small = compile_design(figure1_source, deplist_entries=2)
        large = compile_design(figure1_source, deplist_entries=16)
        assert (
            large.wrapper_modules["bram0"].total_ffs()
            > small.wrapper_modules["bram0"].total_ffs()
        )

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

    def test_inject_unknown_interface(self, figure1_source):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        with pytest.raises(KeyError):
            sim.inject("ghost", {})

    def test_executors_share_controllers(self, figure1_source):
        design = compile_design(figure1_source)
        sim = build_simulation(design)
        assert set(sim.controllers) == {"bram0"}
        assert len(sim.executors) == 3

    @pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
    def test_a_run_leaves_no_reference_cycles(self, kernel):
        """Reference counting frees a finished run with a traffic hook
        (it did not on the compiled kernel while the generated
        ``run_span`` closed over its kernel and every build executed
        the program into a fresh module namespace)."""
        design = compile_design(forwarding_source(2))
        build_simulation(design, kernel=kernel)  # the codegen cache lives on
        gc.collect()
        gc.disable()
        try:
            sim = build_simulation(design, kernel=kernel)
            drive_ingress(sim, rate=0.06)
            sim.run(400)
            del sim
            assert gc.collect() == 0
        finally:
            gc.enable()
