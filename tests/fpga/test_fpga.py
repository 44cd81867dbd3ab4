"""Unit tests for the FPGA device, packing, area, and timing models."""

import pytest

from repro.fpga import (
    PAPER_TARGET_MHZ,
    XC2VP20,
    FabricTiming,
    device,
    estimate_area,
    estimate_design,
    estimate_timing,
    overhead_fraction,
    pack,
)
from repro.hic.pragmas import ConsumerRef, Dependency
from repro.rtl import (
    WrapperParams,
    generate_arbitrated_wrapper,
    generate_design,
    generate_event_driven_wrapper,
)


def fanout_dep(consumers):
    return Dependency(
        "d0",
        "prod",
        "x",
        tuple(ConsumerRef(f"c{i}", f"v{i}") for i in range(consumers)),
    )


class TestDevice:
    def test_xc2vp20_resources(self):
        assert XC2VP20.slices == 9280
        assert XC2VP20.bram_blocks == 88
        assert XC2VP20.ppc_cores == 2

    def test_lookup(self):
        assert device("XC2VP30").slices == 13696

    def test_unknown_part(self):
        with pytest.raises(KeyError):
            device("XC7A100T")

    def test_fits(self):
        assert XC2VP20.fits(slices=5430, brams=10)
        assert not XC2VP20.fits(slices=100000)

    def test_fabric_timing_monotone(self):
        timing = FabricTiming()
        assert timing.period_ns(5) < timing.period_ns(10)
        assert timing.fmax_mhz(5) > timing.fmax_mhz(10)


class TestPacking:
    def test_lut_limited(self):
        assert pack(luts=100, ffs=20) >= 50

    def test_ff_limited(self):
        assert pack(luts=10, ffs=100) >= 50

    def test_zero_resources(self):
        assert pack(0, 0) == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            pack(-1, 0)


class TestAreaEstimation:
    def test_wrapper_report_row(self):
        m = generate_arbitrated_wrapper(WrapperParams(consumers=2))
        report = estimate_area(m)
        assert report.ffs == 66
        assert report.luts > 0 and report.slices > 0

    def test_overhead_in_paper_band(self):
        # §4: "the area overhead can vary from 5-20%" of a ~1000-slice core.
        for n in (2, 4, 8):
            report = estimate_area(
                generate_arbitrated_wrapper(WrapperParams(consumers=n))
            )
            fraction = overhead_fraction(report, core_slices=1000)
            assert 0.05 <= fraction <= 0.20

    def test_overhead_requires_positive_core(self):
        report = estimate_area(
            generate_arbitrated_wrapper(WrapperParams(consumers=2))
        )
        with pytest.raises(ValueError):
            overhead_fraction(report, core_slices=0)

    def test_design_utilization(self):
        arb = generate_arbitrated_wrapper(WrapperParams(consumers=2))
        top = generate_design("top", [arb], [])
        util = estimate_design(top)
        assert util.fits
        assert 0 < util.slice_utilization < 0.05
        assert util.total.brams == 1
        assert "XC2VP20" in util.render()


class TestTimingEstimation:
    def test_all_scenarios_meet_125mhz(self):
        # §4: every case achieved the 125 MHz target.
        for n in (2, 4, 8):
            arb = estimate_timing(
                generate_arbitrated_wrapper(WrapperParams(consumers=n))
            )
            assert arb.meets_target
            assert arb.target_mhz == PAPER_TARGET_MHZ

    def test_fmax_decreases_with_consumers(self):
        fmax = [
            estimate_timing(
                generate_arbitrated_wrapper(WrapperParams(consumers=n))
            ).fmax_mhz
            for n in (2, 4, 8)
        ]
        assert fmax[0] > fmax[1] > fmax[2]

    def test_event_driven_faster_than_arbitrated(self):
        # §4: 177/136/129 MHz (event-driven) vs 158/130/~125 (arbitrated).
        for n in (2, 4, 8):
            arb = generate_arbitrated_wrapper(WrapperParams(consumers=n))
            ed = generate_event_driven_wrapper(
                WrapperParams(consumers=n), [fanout_dep(n)]
            )
            reports = {
                "arbitrated": estimate_timing(arb),
                "event_driven": estimate_timing(ed),
            }
            assert (
                reports["event_driven"].fmax_mhz
                > reports["arbitrated"].fmax_mhz
            )

    def test_event_driven_advantage_narrows(self):
        # The paper's ratio shrinks from 1.12 (2 consumers) toward 1.03 (8).
        ratios = []
        for n in (2, 8):
            arb = generate_arbitrated_wrapper(WrapperParams(consumers=n))
            ed = generate_event_driven_wrapper(
                WrapperParams(consumers=n), [fanout_dep(n)]
            )
            reports = {
                "arbitrated": estimate_timing(arb),
                "event_driven": estimate_timing(ed),
            }
            ratios.append(
                reports["event_driven"].fmax_mhz / reports["arbitrated"].fmax_mhz
            )
        assert ratios[0] > ratios[1] > 1.0

    def test_slack_sign(self):
        report = estimate_timing(
            generate_arbitrated_wrapper(WrapperParams(consumers=2))
        )
        assert report.slack_ns > 0
        assert "MET" in report.render()
