"""Unit tests for the FSM optimization passes."""

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.hic import analyze
from repro.memory import allocate
from repro.synth import synthesize_thread
from repro.synth.optimize import (
    collapse_passthrough_states,
    eliminate_dead_states,
    optimize_fsm,
    pack_compute_states,
)


def synth(source, thread=None):
    checked = analyze(source)
    mm = allocate(checked)
    if thread is None:
        thread = checked.program.threads[0].name
    return synthesize_thread(checked, mm, thread)


class TestDeadStateElimination:
    def test_break_leaves_dead_state(self):
        fsm = synth(
            "thread t () { int i; while (1) { break; i = 1; } i = 2; }"
        )
        before = fsm.state_count
        removed = eliminate_dead_states(fsm)
        assert removed > 0
        assert fsm.state_count == before - removed
        assert fsm.reachable_states() == set(fsm.states)

    def test_clean_fsm_untouched(self):
        fsm = synth("thread t () { int x; x = 1; }")
        eliminate_dead_states(fsm)
        count = fsm.state_count
        assert eliminate_dead_states(fsm) == 0
        assert fsm.state_count == count

    def test_sync_states_pruned(self, figure1_checked):
        mm = allocate(figure1_checked)
        fsm = synthesize_thread(figure1_checked, mm, "t1")
        eliminate_dead_states(fsm)
        assert all(
            name in fsm.states
            for names in fsm.sync_states.values()
            for name in names
        )


class TestPassthroughCollapse:
    def test_join_states_removed(self):
        fsm = synth(
            "thread t () { int x; if (x) { x = 1; } else { x = 2; } x = 3; }"
        )
        before = fsm.state_count
        collapsed = collapse_passthrough_states(fsm)
        assert collapsed > 0
        assert fsm.state_count < before

    def test_loop_headers_preserved(self):
        fsm = synth("thread t () { int i; while (i < 3) { i = i + 1; } }")
        collapse_passthrough_states(fsm)
        # The loop must still execute correctly after collapsing.
        order = {name: i for i, name in enumerate(fsm.states)}
        has_back_edge = any(
            order[tr.target] <= order[s.name]
            for s in fsm.states.values()
            for tr in s.transitions
        )
        assert has_back_edge

    def test_initial_state_never_collapsed(self):
        fsm = synth("thread t () { int x; x = 1; }")
        collapse_passthrough_states(fsm)
        assert fsm.initial in fsm.states


class TestComputePacking:
    def test_independent_computes_merge(self):
        fsm = synth(
            "thread t () { int a, b, c, d; a = b + 1; c = d + 2; }"
        )
        packed = pack_compute_states(fsm)
        assert packed == 1

    def test_resource_budget_respected(self):
        source = (
            "thread t () { int a, b, c, d, e, f2; "
            "a = b + 1; c = d + 2; e = f2 + 3; }"
        )
        fsm = synth(source)
        pack_compute_states(fsm)
        compute_states = [s for s in fsm.states.values() if s.ops]
        # 3 adds at 2 ALUs per cycle -> at least 2 states remain.
        assert len(compute_states) >= 2

    def test_memory_states_not_merged(self):
        fsm = synth("thread t () { int a[4], x, y; x = a[0]; y = x + 1; }")
        before_mem = sum(
            1 for s in fsm.states.values() if s.memory_ops
        )
        pack_compute_states(fsm)
        after_mem = sum(1 for s in fsm.states.values() if s.memory_ops)
        assert before_mem == after_mem

    def test_branch_targets_not_merged(self):
        fsm = synth(
            "thread t () { int x, y; if (x) { y = 1; y = y + 1; } }"
        )
        pack_compute_states(fsm)
        assert fsm.reachable_states() == set(fsm.states)


class TestOptimizeFsm:
    def test_counters_and_fixpoint(self):
        fsm = synth(
            "thread t () { int a, b, c; if (a) { b = 1; } else { b = 2; } "
            "c = b + 1; c = c + 2; }"
        )
        counters = optimize_fsm(fsm)
        assert counters["collapsed"] > 0 or counters["packed"] > 0
        # Running again is a no-op.
        assert optimize_fsm(fsm) == {"dead": 0, "collapsed": 0, "packed": 0}

    def test_optimized_fsm_still_simulates_correctly(self):
        source = (
            "thread t () { int a, b, c, done; "
            "if (done == 0) { a = 3; b = a + 4; c = a * b; done = 1; } }"
        )
        # Reference: unoptimized run through the normal flow.
        design = compile_design(source)
        sim = build_simulation(design)
        sim.run(60)
        reference = sim.executors["t"].env["c"]

        # Optimize the FSM in place and re-simulate.
        design2 = compile_design(source)
        from repro.synth.optimize import optimize_fsm as opt

        opt(design2.fsms["t"])
        sim2 = build_simulation(design2)
        sim2.run(60)
        assert sim2.executors["t"].env["c"] == reference == 3 * 7

    def test_optimization_reduces_cycles_per_round(self):
        source = (
            "thread t () { int a, b, c, d; "
            "a = a + 1; b = a + 2; c = b + 3; d = c + 4; }"
        )
        baseline = compile_design(source)
        sim = build_simulation(baseline)
        sim.run(200)
        base_rounds = sim.executors["t"].stats.rounds_completed

        optimized = compile_design(source)
        optimize_fsm(optimized.fsms["t"])
        sim2 = build_simulation(optimized)
        sim2.run(200)
        assert sim2.executors["t"].stats.rounds_completed > base_rounds

    def test_figure1_all_organizations_after_optimization(
        self, figure1_source
    ):
        for org in Organization:
            design = compile_design(figure1_source, organization=org)
            for fsm in design.fsms.values():
                optimize_fsm(fsm)
            sim = build_simulation(design)
            sim.run(300)
            assert sim.executors["t2"].stats.rounds_completed > 0
