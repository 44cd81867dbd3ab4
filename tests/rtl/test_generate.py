"""Unit tests for the wrapper/thread netlist generators."""

import pytest

from repro.fpga import estimate_area
from repro.hic import analyze
from repro.hic.pragmas import ConsumerRef, Dependency
from repro.memory import allocate
from repro.rtl import (
    WrapperParams,
    generate_arbitrated_wrapper,
    generate_design,
    generate_event_driven_wrapper,
    generate_lock_baseline,
    generate_thread_module,
)
from repro.synth import bind_program, synthesize_program


def fanout_dep(consumers):
    return Dependency(
        "d0",
        "prod",
        "x",
        tuple(ConsumerRef(f"c{i}", f"v{i}") for i in range(consumers)),
    )


class TestArbitratedGenerator:
    def test_baseline_ff_count_is_66(self):
        # The paper: "the baseline architecture ... requires 66 flip-flops".
        for consumers in (2, 4, 8):
            m = generate_arbitrated_wrapper(WrapperParams(consumers=consumers))
            assert estimate_area(m).ffs == 66

    def test_luts_grow_with_consumers(self):
        luts = [
            estimate_area(
                generate_arbitrated_wrapper(WrapperParams(consumers=n))
            ).luts
            for n in (2, 4, 8)
        ]
        assert luts[0] < luts[1] < luts[2]

    def test_single_bram(self):
        m = generate_arbitrated_wrapper(WrapperParams(consumers=2))
        assert estimate_area(m).brams == 1

    def test_guarded_read_path_grows(self):
        paths = [
            generate_arbitrated_wrapper(WrapperParams(consumers=n)).worst_path()[1]
            for n in (2, 4, 8)
        ]
        assert paths[0] < paths[2]

    def test_deplist_entries_scale_ffs(self):
        small = generate_arbitrated_wrapper(
            WrapperParams(consumers=2, deplist_entries=2)
        )
        large = generate_arbitrated_wrapper(
            WrapperParams(consumers=2, deplist_entries=16)
        )
        assert estimate_area(large).ffs > estimate_area(small).ffs

    def test_multi_producer_adds_arbiter(self):
        single = generate_arbitrated_wrapper(WrapperParams(consumers=2))
        multi = generate_arbitrated_wrapper(
            WrapperParams(consumers=2, producers=3)
        )
        assert estimate_area(multi).ffs > estimate_area(single).ffs


class TestEventDrivenGenerator:
    def test_ffs_scale_with_consumers(self):
        ffs = [
            estimate_area(
                generate_event_driven_wrapper(
                    WrapperParams(consumers=n), [fanout_dep(n)]
                )
            ).ffs
            for n in (2, 4, 8)
        ]
        assert ffs[0] < ffs[1] < ffs[2]

    def test_lighter_than_arbitrated(self):
        for n in (2, 4, 8):
            arb = generate_arbitrated_wrapper(WrapperParams(consumers=n))
            ed = generate_event_driven_wrapper(
                WrapperParams(consumers=n), [fanout_dep(n)]
            )
            assert estimate_area(ed).luts < estimate_area(arb).luts
            assert estimate_area(ed).ffs < estimate_area(arb).ffs

    def test_shorter_critical_path_than_arbitrated(self):
        for n in (2, 4, 8):
            arb = generate_arbitrated_wrapper(WrapperParams(consumers=n))
            ed = generate_event_driven_wrapper(
                WrapperParams(consumers=n), [fanout_dep(n)]
            )
            assert ed.worst_path()[1] < arb.worst_path()[1]

    def test_empty_dependency_list(self):
        m = generate_event_driven_wrapper(WrapperParams(consumers=0), [])
        assert estimate_area(m).brams == 1


class TestLockBaselineGenerator:
    def test_generates(self):
        m = generate_lock_baseline(WrapperParams(consumers=2))
        assert estimate_area(m).brams == 1
        assert estimate_area(m).ffs > 0

    def test_per_client_fsm_cost(self):
        small = generate_lock_baseline(WrapperParams(consumers=2))
        large = generate_lock_baseline(WrapperParams(consumers=8))
        assert estimate_area(large).luts > estimate_area(small).luts
        assert estimate_area(large).ffs > estimate_area(small).ffs


class TestThreadGenerator:
    def test_figure1_thread_modules(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsms = synthesize_program(figure1_checked, mm)
        bindings = bind_program(figure1_checked, mm, fsms)
        for name in ("t1", "t2", "t3"):
            module = generate_thread_module(fsms[name], bindings[name])
            assert estimate_area(module).ffs > 0
            assert module.name == f"thread_{name}"

    def test_registers_contribute_ffs(self):
        checked = analyze("thread t () { int a, b, c; a = b + c; }")
        mm = allocate(checked)
        fsms = synthesize_program(checked, mm)
        bindings = bind_program(checked, mm, fsms)
        module = generate_thread_module(fsms["t"], bindings["t"])
        assert estimate_area(module).ffs >= 96  # three 32-bit registers


class TestDesignGenerator:
    def test_top_level_composition(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsms = synthesize_program(figure1_checked, mm)
        bindings = bind_program(figure1_checked, mm, fsms)
        wrapper = generate_arbitrated_wrapper(WrapperParams(consumers=2))
        threads = [
            generate_thread_module(fsms[n], bindings[n])
            for n in ("t1", "t2", "t3")
        ]
        top = generate_design("figure1", [wrapper], threads)
        assert estimate_area(top).brams == 1
        assert estimate_area(top).ffs > estimate_area(wrapper).ffs
        assert len(top.instances) == 4
