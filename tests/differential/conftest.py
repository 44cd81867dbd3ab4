"""Shared rig for the cross-kernel differential harness.

Every fast kernel's correctness claim is *cycle equivalence*: for any
compiled design, traffic schedule, and fault campaign, the wheel and
compiled kernels must leave the simulation in exactly the state the
reference kernel would — same consumer values, same executor
statistics, same controller latency samples, same memory images, same
telemetry summaries.  These helpers build the simulations identically
and extract the full comparison surface.
"""

from repro.core import ControllerStats, Organization
from repro.flow import build_simulation, compile_design
from repro.net import drive_ingress

#: every kernel backend; index 0 is the semantics-defining reference
KERNELS = ("reference", "wheel", "compiled")


def build_pair(
    source,
    functions=None,
    *,
    organization=Organization.ARBITRATED,
    num_banks=0,
    dep_home="address",
    kernels=KERNELS,
    **compile_kwargs,
):
    """Compile ``source`` once per kernel; one simulation each, in
    ``kernels`` order (the reference kernel first)."""
    sims = []
    for kernel in kernels:
        design = compile_design(
            source,
            organization=organization,
            num_banks=num_banks,
            dep_home=dep_home,
            **compile_kwargs,
        )
        sims.append(build_simulation(design, functions=functions, kernel=kernel))
    return tuple(sims)


def attach_traffic(sim, rate, seed):
    """Seeded Bernoulli traffic on every received ingress, one stream
    per rx (see :func:`repro.net.drive_ingress`)."""
    drive_ingress(sim, rate, seed)


def architectural_state(sim):
    """Everything the two kernels must agree on after a run.

    Each entry is independently comparable so a mismatch pinpoints the
    diverging layer (interfaces, executors, controllers, or memory).
    """
    return {
        "tx": {name: tx.messages for name, tx in sim.tx.items()},
        "executor_stats": {
            name: (
                executor.stats.cycles,
                executor.stats.stall_cycles,
                executor.stats.advances,
                executor.stats.rounds_completed,
                dict(executor.stats.state_visits),
            )
            for name, executor in sim.executors.items()
        },
        "envs": {
            name: dict(executor.env)
            for name, executor in sim.executors.items()
        },
        "latency_samples": {
            name: controller.latency_samples
            for name, controller in sim.controllers.items()
        },
        "controller_stats": {
            name: ControllerStats.from_waits(controller.waits_for())
            for name, controller in sim.controllers.items()
        },
        "memory": {
            name: controller.bram.snapshot()
            for name, controller in sim.controllers.items()
        },
        "blocked": {
            name: controller.blocked
            for name, controller in sim.controllers.items()
        },
    }


def assert_equivalent(reference_sim, *candidate_sims):
    """Assert every candidate matches the reference on the full
    architectural comparison surface."""
    reference = architectural_state(reference_sim)
    for candidate_sim in candidate_sims:
        candidate = architectural_state(candidate_sim)
        for key in reference:
            assert candidate[key] == reference[key], (
                f"kernels diverged on {key!r}"
            )
