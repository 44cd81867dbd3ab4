"""Integration: the paper's evaluation claims, checked end-to-end.

Each test corresponds to a sentence of §4 (or §3) of the paper; the
benchmarks regenerate the full tables, these tests pin the *claims*.
"""

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.fpga import estimate_area, estimate_timing, overhead_fraction
from repro.net import (
    BernoulliTraffic,
    CORE_FORWARDING_SLICES,
    forwarding_functions,
    forwarding_source,
    multi_pair_source,
)
from repro.sim.probes import PostWriteLatencyProbe

SCENARIOS = (2, 4, 8)


def wrapper_report(consumers, organization):
    design = compile_design(
        forwarding_source(consumers, with_io=False), organization=organization
    )
    return design, design.area_report("bram0"), design.timing_report("bram0")


class TestTable1Claims:
    """§4 Table 1 — arbitrated organization area."""

    def test_ff_constant_at_66(self):
        ffs = [
            wrapper_report(n, Organization.ARBITRATED)[1].ffs
            for n in SCENARIOS
        ]
        assert ffs == [66, 66, 66]

    def test_lut_grows_monotonically(self):
        luts = [
            wrapper_report(n, Organization.ARBITRATED)[1].luts
            for n in SCENARIOS
        ]
        assert luts[0] < luts[1] < luts[2]

    def test_slices_grow_monotonically(self):
        slices = [
            wrapper_report(n, Organization.ARBITRATED)[1].slices
            for n in SCENARIOS
        ]
        assert slices[0] < slices[1] < slices[2]


class TestTable2Claims:
    """§4 Table 2 — event-driven organization area."""

    def test_area_grows_with_consumers(self):
        reports = [
            wrapper_report(n, Organization.EVENT_DRIVEN)[1] for n in SCENARIOS
        ]
        assert reports[0].luts < reports[1].luts < reports[2].luts
        assert reports[0].slices < reports[2].slices


class TestFrequencyClaims:
    """§4 in-text: 158/130/~125 MHz arbitrated, 177/136/129 event-driven,
    all against a 125 MHz target."""

    def test_every_scenario_meets_125mhz(self):
        for org in (Organization.ARBITRATED, Organization.EVENT_DRIVEN):
            for n in SCENARIOS:
                __, __, timing = wrapper_report(n, org)
                assert timing.meets_target, (org, n, timing.fmax_mhz)

    def test_frequency_decreases_with_consumers(self):
        for org in (Organization.ARBITRATED, Organization.EVENT_DRIVEN):
            fmax = [wrapper_report(n, org)[2].fmax_mhz for n in SCENARIOS]
            assert fmax[0] > fmax[1] > fmax[2]

    def test_event_driven_is_faster(self):
        for n in SCENARIOS:
            arb = wrapper_report(n, Organization.ARBITRATED)[2].fmax_mhz
            ed = wrapper_report(n, Organization.EVENT_DRIVEN)[2].fmax_mhz
            assert ed > arb


class TestOverheadClaim:
    """§4: "the area overhead can vary from 5-20%" of the ~1000-slice
    core forwarding function."""

    def test_overhead_band(self):
        low, high = 0.05, 0.20
        for n in SCENARIOS:
            report = wrapper_report(n, Organization.ARBITRATED)[1]
            fraction = overhead_fraction(report, CORE_FORWARDING_SLICES)
            assert low <= fraction <= high


class TestDeterminismClaim:
    """§3.1/§3.2: arbitrated consumer-read latency is non-deterministic
    when multiple producer-consumer pairs share a BRAM; the event-driven
    organization fixes post-write latency."""

    def contention_run(self, organization, cycles=3000):
        source = multi_pair_source(pairs=3, consumers_per_pair=2)
        design = compile_design(source, organization=organization)
        sim = build_simulation(design)
        sim.run(cycles)
        return PostWriteLatencyProbe(sim.controllers["bram0"])

    def test_arbitrated_latency_varies_under_contention(self):
        probe = self.contention_run(Organization.ARBITRATED)
        assert not probe.all_deterministic()
        assert probe.max_jitter() > 0

    def test_event_driven_post_write_latency_fixed(self):
        probe = self.contention_run(Organization.EVENT_DRIVEN)
        assert probe.all_deterministic()
        assert probe.max_jitter() == 0


class TestLockBaselineClaim:
    """§1 motivation: the guarded ports eliminate the lock-protocol
    overhead a hand-built shared-memory design pays."""

    def test_wrapper_outperforms_locks(self):
        cycles = 1500
        rounds = {}
        for org in (Organization.ARBITRATED, Organization.LOCK_BASELINE):
            design = compile_design(
                forwarding_source(4, with_io=False), organization=org
            )
            sim = build_simulation(design)
            sim.run(cycles)
            rounds[org] = sim.executors["egress0"].stats.rounds_completed
        assert rounds[Organization.ARBITRATED] > 2 * rounds[
            Organization.LOCK_BASELINE
        ]

    def test_lock_overhead_accounted(self):
        design = compile_design(
            forwarding_source(2, with_io=False),
            organization=Organization.LOCK_BASELINE,
        )
        sim = build_simulation(design)
        sim.run(800)
        stats = sim.controllers["bram0"].stats
        assert stats.useful_accesses > 0
        assert stats.overhead_per_access >= 3.0
