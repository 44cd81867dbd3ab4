"""Unit tests for the fault injector, driven over a bare kernel."""

import pytest

from repro.core import ArbitratedController, MemRequest
from repro.faults import (
    DeplistCorruption,
    FaultInjector,
    ProducerStall,
    RequestDrop,
    RequestDuplicate,
    SeuBitFlip,
)
from repro.memory import BlockRam, DependencyEntry, DependencyList
from repro.sim import SimulationKernel


def make_rig(consumers=1, dn=None):
    """An arbitrated controller under a kernel with no executors, so tests
    drive traffic explicitly through pre-cycle hooks."""
    names = [f"c{i}" for i in range(consumers)]
    deplist = DependencyList(
        bram="bram0",
        entries=[DependencyEntry("d0", dn or consumers, 0, "prod", tuple(names))],
    )
    controller = ArbitratedController(
        BlockRam("bram0"), deplist, names, ["prod"]
    )
    kernel = SimulationKernel(executors={}, controllers={"bram0": controller})
    return kernel, controller


def write_req(data=1):
    return MemRequest("prod", "D", 0, True, data=data, dep_id="d0")


def read_req(client="c0"):
    return MemRequest(client, "C", 0, False, dep_id="d0")


class TestSeu:
    def test_bit_flips_at_scheduled_cycle(self):
        kernel, controller = make_rig()
        injector = FaultInjector(
            [SeuBitFlip(at_cycle=2, bram="bram0", address=3, bit=5)]
        ).attach(kernel)
        kernel.step()
        kernel.step()
        assert controller.bram.read(3) == 0  # pre-hook of cycle 2 not yet run
        kernel.step()
        assert controller.bram.read(3) == 32
        assert injector.log == [(2, "seu@2: flip bram0[3] bit 5")]

    def test_flip_is_an_xor(self):
        kernel, controller = make_rig()
        controller.bram.write(0, 0b100000)
        FaultInjector(
            [SeuBitFlip(at_cycle=0, bram="bram0", address=0, bit=5)]
        ).attach(kernel)
        kernel.step()
        assert controller.bram.read(0) == 0

    def test_registered_in_kernel_context(self):
        kernel, __ = make_rig()
        injector = FaultInjector([]).attach(kernel)
        assert kernel.context["fault-injector"] is injector


class TestProducerStall:
    def test_dead_producer_never_writes(self):
        kernel, controller = make_rig()
        FaultInjector([ProducerStall(at_cycle=0, client="prod")]).attach(kernel)
        kernel.add_pre_cycle_hook(
            lambda cycle, k: controller.submit(write_req())
        )
        kernel.run(6)
        assert controller.latency_samples == []
        assert controller.blocked == []  # dropped at the tap, never pending

    def test_finite_stall_delays_the_write(self):
        kernel, controller = make_rig()
        FaultInjector(
            [ProducerStall(at_cycle=0, client="prod", duration=3)]
        ).attach(kernel)
        kernel.add_pre_cycle_hook(
            lambda cycle, k: controller.submit(write_req())
        )
        kernel.run(6)
        grants = [s.grant_cycle for s in controller.latency_samples]
        assert grants == [3]

    def test_other_clients_unaffected(self):
        kernel, controller = make_rig()
        FaultInjector([ProducerStall(at_cycle=0, client="ghost")]).attach(
            kernel
        )
        kernel.add_pre_cycle_hook(
            lambda cycle, k: controller.submit(write_req())
        )
        kernel.run(2)
        assert [s.grant_cycle for s in controller.latency_samples] == [0]


class TestRequestDrop:
    def test_drops_then_recovers(self):
        kernel, controller = make_rig()
        injector = FaultInjector(
            [RequestDrop(at_cycle=1, bram="bram0", client="c0", count=2)]
        ).attach(kernel)

        def traffic(cycle, k):
            if cycle == 0:
                controller.submit(write_req())
            elif len(controller.waits_for(port="C")) == 0:
                controller.submit(read_req("c0"))

        kernel.add_pre_cycle_hook(traffic)
        kernel.run(6)
        samples = [
            s for s in controller.latency_samples if s.port == "C"
        ]
        # Cycles 1 and 2 were dropped at the port; only the cycle-3
        # submission reaches arbitration and is granted immediately.
        assert [s.grant_cycle for s in samples] == [3]
        assert [c for c, __ in injector.log] == [1, 2]


class TestRequestDuplicate:
    def test_replay_steals_a_read_slot(self):
        kernel, controller = make_rig(consumers=2, dn=2)
        injector = FaultInjector(
            [RequestDuplicate(at_cycle=1, bram="bram0", client="c0")]
        ).attach(kernel)

        def traffic(cycle, k):
            if cycle == 0:
                controller.submit(write_req())
            elif cycle == 1:
                controller.submit(read_req("c0"))
            elif cycle == 2:
                controller.submit(read_req("c1"))

        kernel.add_pre_cycle_hook(traffic)
        kernel.run(7)
        # The captured c0 read is replayed after its legitimate grant; once
        # dn is exhausted the replay sits blocked at the guard.
        assert any(b.request.client == "c0" for b in controller.blocked)
        assert any("request-duplicate" in entry for __, entry in injector.log)


class TestDeplistCorruption:
    def test_wrong_dn_applied_at_cycle(self):
        kernel, controller = make_rig()
        FaultInjector(
            [
                DeplistCorruption(
                    at_cycle=1, bram="bram0", dep_id="d0", dependency_number=5
                )
            ]
        ).attach(kernel)
        kernel.step()
        assert controller.deplist.entry_for("d0").dependency_number == 1
        kernel.step()
        assert controller.deplist.entry_for("d0").dependency_number == 5

    def test_wrong_base_address_moves_the_guard(self):
        kernel, controller = make_rig()
        FaultInjector(
            [
                DeplistCorruption(
                    at_cycle=0, bram="bram0", dep_id="d0", base_address=17
                )
            ]
        ).attach(kernel)
        kernel.step()
        assert controller.deplist.entry_for("d0").base_address == 17

    def test_corrupt_seam_returns_original(self):
        __, controller = make_rig()
        original = controller.deplist.corrupt("d0", dependency_number=9)
        assert original == (1, 0)
        assert controller.deplist.entry_for("d0").dependency_number == 9


class TestSimulationWiring:
    def test_inject_faults_via_flow(self, pipeline_source):
        from repro.flow import build_simulation, compile_design

        sim = build_simulation(compile_design(pipeline_source))
        injector = sim.inject_faults(
            [SeuBitFlip(at_cycle=1, bram=sorted(sim.controllers)[0])]
        )
        sim.run(5)
        assert injector.log


#: Two drop schedules that used to let the skipping kernels jump over
#: the re-asserted request (at 400 cycles the reference kernel completes
#: 81/79/79 and 66/66/65 stage rounds; the wheel completed 12/11/10 and
#: 1/1/0).
DROP_CASES = {
    "arbitrated": [RequestDrop(at_cycle=55, count=2)],
    "event_driven": [
        RequestDrop(at_cycle=6, client="stage3", count=2),
        RequestDrop(at_cycle=83, count=3),
    ],
}


def _drop_run(organization, kernel):
    from repro.core import Organization
    from repro.faults.campaign import CAMPAIGN_SOURCE
    from repro.flow import build_simulation, compile_design

    design = compile_design(
        CAMPAIGN_SOURCE, organization=Organization(organization)
    )
    sim = build_simulation(design, kernel=kernel)
    injector = sim.inject_faults(DROP_CASES[organization])
    sim.run(400)
    assert injector.log  # the drops really happened
    return (
        {name: e.stats for name, e in sim.executors.items()},
        {name: tx.messages for name, tx in sim.tx.items()},
    )


class TestRequestDropAcrossKernels:
    """A dropped request never reaches its controller, so only the
    injector knows the held executor re-asserts it next cycle: the
    skipping kernels must not jump over that cycle once the drop count
    is spent.  No campaign round recorder is attached, so nothing else
    holds the kernel to cycle-by-cycle execution."""

    @pytest.mark.parametrize("kernel", ["wheel", "compiled"])
    @pytest.mark.parametrize("organization", sorted(DROP_CASES))
    def test_matches_the_reference_kernel(self, organization, kernel):
        assert _drop_run(organization, kernel) == _drop_run(
            organization, "reference"
        )
