"""Differential coverage of the compiled kernel's *generated* path.

The main matrix attaches telemetry, so the compiled kernel runs its
wheel escape hatch there.  These cells attach nothing but the
(``mutates_only_rx``) traffic injector, assert the same full-surface
equivalence against the reference kernel, and — critically — assert
that every cycle actually ran through the generated tick function.
Without the counters the equivalence claim would be vacuous: a kernel
that silently fell back would pass by construction.
"""

import pytest

from repro.core import Organization
from repro.net import forwarding_functions, forwarding_source

from .conftest import assert_equivalent, attach_traffic, build_pair

CYCLES = 1500
SEED = 11

ORGANIZATIONS = [
    Organization.ARBITRATED,
    Organization.EVENT_DRIVEN,
    Organization.LOCK_BASELINE,
]


def run_cell(organization, num_banks, rate):
    reference_sim, compiled_sim = build_pair(
        forwarding_source(2),
        forwarding_functions(),
        organization=organization,
        num_banks=num_banks,
        kernels=("reference", "compiled"),
    )
    for sim in (reference_sim, compiled_sim):
        attach_traffic(sim, rate, SEED)
        sim.run(CYCLES)
    return reference_sim, compiled_sim


@pytest.mark.parametrize(
    "organization", ORGANIZATIONS, ids=[o.value for o in ORGANIZATIONS]
)
@pytest.mark.parametrize("num_banks", [0, 4], ids=["banks0", "banks4"])
@pytest.mark.parametrize("rate", [0.02, 0.9], ids=["sparse", "dense"])
def test_compiled_fast_path_equivalence(organization, num_banks, rate):
    reference_sim, compiled_sim = run_cell(organization, num_banks, rate)
    assert_equivalent(reference_sim, compiled_sim)
    kernel = compiled_sim.kernel
    assert kernel.cycle == CYCLES
    # every cycle came out of the generated tick function
    assert kernel.cycles_compiled == CYCLES
    assert kernel.cycles_interpreted == 0
    assert kernel.bind_error is None


def test_fast_path_survives_split_runs():
    """State flushes back to the live objects between ``run`` calls, so
    a span-split run must land in the identical final state."""
    reference_sim, compiled_sim = build_pair(
        forwarding_source(2),
        forwarding_functions(),
        organization=Organization.ARBITRATED,
        kernels=("reference", "compiled"),
    )
    for sim in (reference_sim, compiled_sim):
        attach_traffic(sim, 0.9, SEED)
    reference_sim.run(CYCLES)
    for span in (1, 7, 500, CYCLES - 508):
        compiled_sim.run(span)
    assert compiled_sim.kernel.cycle == CYCLES
    assert compiled_sim.kernel.cycles_compiled == CYCLES
    assert_equivalent(reference_sim, compiled_sim)


class _NullObserver:
    """Observes nothing but disables the generated path; its idle-cycle
    callback lets the wheel fallback skip."""

    def on_cycle(self, cycle, sim_kernel):
        pass

    def on_idle_cycles(self, first_cycle, count, sim_kernel):
        pass


def test_escape_hatch_is_per_call():
    """Attaching an observer mid-run flips to the wheel fallback;
    detaching it resumes the generated path — with state carried across
    every seam byte-for-byte.  The sequence compiled -> observed (the
    wheel skips while executors hold) -> compiled (the span rewrites
    executor state and advance counters) -> observed again ends equal
    to the reference kernel, on dense traffic and on sparse traffic."""
    for rate in (0.9, 0.05):
        reference_sim, compiled_sim = build_pair(
            forwarding_source(2),
            forwarding_functions(),
            organization=Organization.ARBITRATED,
            kernels=("reference", "compiled"),
        )
        for sim in (reference_sim, compiled_sim):
            attach_traffic(sim, rate, SEED)
        reference_sim.run(CYCLES)

        kernel = compiled_sim.kernel
        compiled_sim.run(300)
        assert kernel.cycles_compiled == 300

        kernel.observer = _NullObserver()
        compiled_sim.run(500)
        assert kernel.cycles_interpreted == 500
        if rate < 0.5:
            # the fallback is the wheel: it skipped idle stretches
            assert kernel.cycles_skipped > 0

        kernel.observer = None
        compiled_sim.run(200)
        assert kernel.cycles_compiled == 500

        kernel.observer = _NullObserver()
        compiled_sim.run(CYCLES - 1000)
        assert kernel.cycles_interpreted == CYCLES - 500
        assert kernel.cycles_compiled + kernel.cycles_interpreted == CYCLES
        assert kernel.cycle == CYCLES
        assert_equivalent(reference_sim, compiled_sim)
