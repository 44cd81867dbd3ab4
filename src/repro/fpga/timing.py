"""Timing estimation: critical path to achievable clock frequency.

Each generated module documents its critical paths as LUT-level counts
(:meth:`repro.rtl.netlist.Module.note_path`); this module converts the
worst one into a period/fmax with the device's fabric constants and checks
it against a target clock — reproducing the §4 experiment where each
configuration was placed and routed against a 125 MHz target.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rtl.netlist import Module
from .device import XC2VP20

#: The paper's target clock rate for every scenario (§4).
PAPER_TARGET_MHZ = 125.0


@dataclass(frozen=True)
class TimingReport:
    """Result of timing estimation for one module."""

    module: str
    critical_path: str
    logic_levels: int
    period_ns: float
    fmax_mhz: float
    target_mhz: float

    @property
    def meets_target(self) -> bool:
        return self.fmax_mhz >= self.target_mhz

    @property
    def slack_ns(self) -> float:
        """Positive slack means the target period has margin."""
        return (1000.0 / self.target_mhz) - self.period_ns

    def render(self) -> str:
        status = "MET" if self.meets_target else "FAILED"
        return (
            f"{self.module}: {self.fmax_mhz:.0f} MHz "
            f"(period {self.period_ns:.2f} ns, {self.logic_levels} levels "
            f"on {self.critical_path}); target {self.target_mhz:.0f} MHz "
            f"{status} (slack {self.slack_ns:+.2f} ns)"
        )


def estimate_timing(module: Module) -> TimingReport:
    """Estimate the achievable frequency of a module hierarchy on the
    paper's XC2VP20 against the paper's target clock."""
    path_name, levels = module.worst_path()
    period = XC2VP20.timing.period_ns(levels)
    return TimingReport(
        module=module.name,
        critical_path=path_name,
        logic_levels=levels,
        period_ns=period,
        fmax_mhz=1000.0 / period,
        target_mhz=PAPER_TARGET_MHZ,
    )


@dataclass
class FabricTimingReport:
    """Timing of a multi-bank fabric: banks and crossbar as pipeline stages."""

    banks: list[TimingReport]
    crossbar: TimingReport

    @property
    def worst(self) -> TimingReport:
        """The stage limiting the fabric clock (longest period)."""
        return max(self.banks + [self.crossbar], key=lambda r: r.period_ns)

    @property
    def fmax_mhz(self) -> float:
        return self.worst.fmax_mhz

    @property
    def meets_target(self) -> bool:
        return self.worst.meets_target

    def render(self) -> str:
        lines = [
            f"fabric fmax {self.fmax_mhz:.0f} MHz "
            f"(limited by {self.worst.module})"
        ]
        for report in self.banks + [self.crossbar]:
            lines.append("  " + report.render())
        return "\n".join(lines)


def estimate_fabric_timing(
    bank_modules: dict[str, Module],
    crossbar_module: Module,
) -> FabricTimingReport:
    """Timing of a fabric: the clock is set by the slowest stage.

    Banks and crossbar are register-bounded stages (the crossbar's link
    registers decouple them), so the fabric period is the max of the stage
    periods — and since the crossbar's routing path deepens with the bank
    count, the fabric period is monotonically non-decreasing in banks.
    """
    banks = [
        estimate_timing(module) for __, module in sorted(bank_modules.items())
    ]
    crossbar = estimate_timing(crossbar_module)
    return FabricTimingReport(banks=banks, crossbar=crossbar)
