"""Differential matrix: reference vs fast kernels across the design space.

Every cell compiles one design per kernel, runs all of them under
identical seeded traffic (and, in the fault cells, an identical fault
campaign), and asserts the complete architectural state matches:
consumer values, executor statistics, controller latency samples /
:class:`ControllerStats`, memory images, blocked-request sets, and the
dependency-lifecycle span summary bytes.  The matrix covers all three
memory organizations, the paper's single-address-space flow plus 1- and
4-bank fabrics, and no-fault vs seeded-fault campaigns.

Telemetry is attached in every cell, so the compiled kernel exercises
its escape hatch (the wheel kernel it inherits from) here — the
equivalence claim covers the fallback path; ``test_compiled_fast_path.py``
covers the generated one.
"""

import pytest

from repro.core import Organization
from repro.faults import (
    ProducerStall,
    RequestDrop,
    RequestDuplicate,
    SeuBitFlip,
)
from repro.net import forwarding_functions, forwarding_source
from repro.obs.exporters import dumps_summary

from .conftest import assert_equivalent, attach_traffic, build_pair

CYCLES = 1500
RATE = 0.02
SEED = 11

ORGANIZATIONS = [
    Organization.ARBITRATED,
    Organization.EVENT_DRIVEN,
    Organization.LOCK_BASELINE,
]

#: 0 = the paper's single-address-space flow; 1 and 4 exercise the
#: sharded fabric (degenerate single bank and the cross-bank router).
BANKS = [0, 1, 4]


def seeded_campaign(bram):
    """A deterministic mixed campaign against ``bram`` — one of each
    disturbance family, spread across the run."""
    return [
        SeuBitFlip(at_cycle=200, bram=bram, address=1, bit=3),
        ProducerStall(at_cycle=400, client="classify", duration=120),
        RequestDrop(at_cycle=700, bram=bram, count=2),
        RequestDuplicate(at_cycle=900, bram=bram),
    ]


def run_cell(organization, num_banks, with_faults, dep_home="address"):
    source = forwarding_source(4)
    functions = forwarding_functions()
    sims = build_pair(
        source,
        functions,
        organization=organization,
        num_banks=num_banks,
        dep_home=dep_home,
    )
    bram = "fabric" if num_banks else "bram0"
    summaries = []
    for sim in sims:
        telemetry = sim.attach_telemetry(trace_level="deps")
        attach_traffic(sim, RATE, SEED)
        if with_faults:
            sim.inject_faults(seeded_campaign(bram))
        sim.run(CYCLES)
        summaries.append(dumps_summary(telemetry))
    return sims, summaries


@pytest.mark.parametrize(
    "organization", ORGANIZATIONS, ids=[o.value for o in ORGANIZATIONS]
)
@pytest.mark.parametrize("num_banks", BANKS, ids=lambda n: f"banks{n}")
@pytest.mark.parametrize(
    "with_faults", [False, True], ids=["no-fault", "seeded-fault"]
)
def test_kernel_equivalence(organization, num_banks, with_faults):
    sims, summaries = run_cell(organization, num_banks, with_faults)
    reference_sim, wheel_sim, compiled_sim = sims
    assert_equivalent(reference_sim, wheel_sim, compiled_sim)
    for summary in summaries[1:]:
        assert summary == summaries[0], "span summaries diverged"
    # All kernels simulated the same number of cycles; the wheel kernel
    # reached it with executed + skipped, and the compiled kernel — with
    # its observer attached — through the wheel escape hatch (skipped
    # cycles count as interpreted).
    for sim in sims:
        assert sim.kernel.cycle == CYCLES
    assert (
        wheel_sim.kernel.cycles_executed + wheel_sim.kernel.cycles_skipped
        == CYCLES
    )
    assert compiled_sim.kernel.cycles_interpreted == CYCLES
    assert compiled_sim.kernel.cycles_compiled == 0


@pytest.mark.parametrize(
    "organization",
    [Organization.ARBITRATED, Organization.EVENT_DRIVEN],
    ids=["arbitrated", "event_driven"],
)
def test_wheel_actually_skips(organization):
    """The equivalence result is vacuous if the wheel never skips: the
    guarded organizations at this traffic rate are mostly idle, so a
    healthy fast kernel must skip a large fraction of the run."""
    (__, wheel_sim, __), __ = run_cell(organization, 0, False)
    assert wheel_sim.kernel.cycles_skipped > CYCLES // 4
    assert wheel_sim.kernel.cycles_executed < CYCLES


def test_lock_baseline_never_skips_under_contention():
    """The lock baseline's spin counters burn every contended cycle —
    skipping would silently drop spin statistics, so the controller must
    pin cycle-by-cycle execution whenever a request is blocked."""
    (__, wheel_sim, __), __ = run_cell(Organization.LOCK_BASELINE, 0, False)
    # Spinning dominates this workload; the wheel may only skip the
    # genuinely request-free stretches.
    assert wheel_sim.kernel.cycles_executed > 0
    total = wheel_sim.kernel.cycles_executed + wheel_sim.kernel.cycles_skipped
    assert total == CYCLES


def test_cross_bank_dep_home_spread():
    """``dep_home="spread"`` routes guards away from their data bank,
    exercising the cross-bank router on every guarded access."""
    sims, summaries = run_cell(
        Organization.ARBITRATED, 4, False, dep_home="spread"
    )
    assert_equivalent(*sims)
    for summary in summaries[1:]:
        assert summary == summaries[0]
