"""Unit tests for the fast kernel's skip machinery.

The cycle-equivalence of :class:`FastKernel` against the reference
kernel is covered end-to-end by ``tests/differential/``, and its exact
skip schedule on realistic runs by ``test_skip_schedule.py``; this
module tests the kernel-level mechanics (skip counters, final-cycle
rule, ``until`` handling, reset, what holds across an arrival).
"""

from repro.core import ArbitratedController
from repro.flow import build_simulation, compile_design
from repro.memory import BlockRam, DependencyEntry, DependencyList
from repro.net import (
    DeterministicTraffic,
    demo_table,
    forwarding_functions,
    forwarding_source,
)
from repro.sim import FastKernel


def make_idle_kernel():
    """A kernel with no executors and one request-free controller — the
    maximally quiescent system."""
    deplist = DependencyList(
        bram="bram0",
        entries=[DependencyEntry("d0", 1, 0, "prod", ("cons",))],
    )
    controller = ArbitratedController(
        BlockRam("bram0"), deplist, ["cons"], ["prod"]
    )
    return FastKernel(executors={}, controllers={"bram0": controller})


class TestFastKernelMechanics:
    def test_idle_run_skips_to_the_final_cycle(self):
        kernel = make_idle_kernel()
        result = kernel.run(100)
        assert result.cycles_run == 100
        assert kernel.cycle == 100
        # Executes the first cycle, skips to the last, executes it.
        assert kernel.cycles_executed == 2
        assert kernel.cycles_skipped == 98

    def test_accounting_always_totals_the_run(self):
        kernel = make_idle_kernel()
        kernel.run(57)
        assert kernel.cycles_executed + kernel.cycles_skipped == 57

    def test_until_predicate_disables_skipping(self):
        kernel = make_idle_kernel()
        kernel.run(50, until=lambda k: False)
        assert kernel.cycles_executed == 50
        assert kernel.cycles_skipped == 0

    def test_unknown_hook_disables_skipping(self):
        kernel = make_idle_kernel()
        kernel.add_post_cycle_hook(lambda c, k: None)  # no next_wake
        kernel.run(50)
        assert kernel.cycles_executed == 50
        assert kernel.cycles_skipped == 0

    def test_hook_with_wake_keeps_skipping(self):
        fired = []

        def hook(cycle, kernel):
            if cycle == 20:
                fired.append(cycle)

        hook.next_wake = lambda cycle, limit, kernel: 20 if cycle < 20 else None
        kernel = make_idle_kernel()
        kernel.add_pre_cycle_hook(hook)
        kernel.run(100)
        assert fired == [20]
        assert kernel.cycles_skipped > 0
        # Cycle 20 was executed, not skipped over.
        assert kernel.cycles_executed >= 3

    def test_single_stepping_never_skips(self):
        kernel = make_idle_kernel()
        for __ in range(10):
            kernel.step()
        assert kernel.cycle == 10
        assert kernel.cycles_executed == 10
        assert kernel.cycles_skipped == 0


class TestWheelHorizonEdges:
    def test_wake_exactly_at_the_run_horizon(self):
        """A wake landing exactly on the run's final cycle: the skip
        jumps straight to it, and the final-cycle rule executes it (the
        hook must fire, not be skipped over)."""
        fired = []

        def hook(cycle, kernel):
            if cycle == 99:
                fired.append(cycle)

        hook.next_wake = (
            lambda cycle, limit, kernel: 99 if cycle < 99 else None
        )
        kernel = make_idle_kernel()
        kernel.add_pre_cycle_hook(hook)
        kernel.run(100)
        assert fired == [99]
        assert kernel.cycle == 100
        # first cycle, one jump, final cycle: nothing else executes
        assert kernel.cycles_executed == 2
        assert kernel.cycles_skipped == 98

    def test_imminent_wake_means_zero_length_skip(self):
        """A hook that always reports a wake on the very next cycle
        leaves a zero-length idle stretch; the kernel must execute every
        cycle rather than spin on zero-length jumps."""
        hook_calls = []

        def hook(cycle, kernel):
            hook_calls.append(cycle)

        hook.next_wake = lambda cycle, limit, kernel: cycle + 1
        kernel = make_idle_kernel()
        kernel.add_pre_cycle_hook(hook)
        kernel.run(40)
        assert kernel.cycle == 40
        assert kernel.cycles_executed == 40
        assert kernel.cycles_skipped == 0
        assert hook_calls == list(range(40))


def make_traffic_sim(kernel):
    """The Figure-1 forwarding pair under one packet every 200 cycles —
    long quiescent stretches bracketed by full produce/consume rounds."""
    design = compile_design(forwarding_source(2))
    sim = build_simulation(
        design, functions=forwarding_functions(demo_table()), kernel=kernel
    )
    hook = DeterministicTraffic(interval=200).attach(sim.rx["eth_in"])
    sim.kernel.add_pre_cycle_hook(hook)
    return sim


class TestParkLifecycle:
    def test_repark_rebuilds_frozen_requests(self):
        """Between packets every executor holds: ``classify`` on its
        empty ingress queue, the egress threads on their guarded reads.
        The packet at 200 moves them all; once they block again they
        hold again and the wheel skips again, and the run split across
        the arrival ends equal to the reference kernel's."""
        sim = make_traffic_sim("wheel")
        kernel = sim.kernel

        sim.run(150)  # quiescent between the packets at 0 and 200
        executors = sim.executors
        assert executors["classify"].hold_class().kind == "recv"
        for name in ("egress0", "egress1"):
            assert executors[name].hold_class().kind == "mem"
        assert all(executor.holds() for executor in executors.values())
        skipped = kernel.cycles_skipped

        sim.run(210)  # across the arrival at 200, back to quiescence
        assert all(executor.holds() for executor in executors.values())
        assert kernel.cycles_skipped > skipped

        reference = make_traffic_sim("reference")
        reference.run(360)
        assert sim.tx["eth_out"].count == reference.tx["eth_out"].count == 2
