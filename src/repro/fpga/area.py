"""Area estimation from generated netlists.

Sums macro-primitive costs over a module hierarchy and packs them into
Virtex-II Pro slices.  This is the reproduction's substitute for ISE map
results: the LUT/FF columns of the paper's Tables 1 and 2 come from
exactly this walk over the generated wrapper structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..rtl.netlist import Module
from .device import Device, XC2VP20
from .packing import pack


@dataclass(frozen=True)
class AreaReport:
    """Area of one module (hierarchy included)."""

    module: str
    luts: int
    ffs: int
    brams: int
    slices: int


@dataclass
class UtilizationReport:
    """Device-level utilization of a full design."""

    device: Device
    total: AreaReport
    per_module: list[AreaReport] = field(default_factory=list)

    @property
    def slice_utilization(self) -> float:
        return self.total.slices / self.device.slices

    @property
    def fits(self) -> bool:
        return self.device.fits(self.total.slices, self.total.brams)

    def render(self) -> str:
        lines = [
            f"device {self.device.name}: "
            f"{self.total.slices}/{self.device.slices} slices "
            f"({100 * self.slice_utilization:.1f}%), "
            f"{self.total.brams}/{self.device.bram_blocks} BRAMs"
        ]
        for report in self.per_module:
            lines.append(
                f"  {report.module:<32} LUT={report.luts:<5} FF={report.ffs:<5}"
                f" slices={report.slices}"
            )
        return "\n".join(lines)


def estimate_area(module: Module) -> AreaReport:
    """Estimate one module's area (its whole hierarchy)."""
    luts, ffs, brams = module.resource_totals()
    return AreaReport(
        module=module.name,
        luts=luts,
        ffs=ffs,
        brams=brams,
        slices=pack(luts, ffs),
    )


def estimate_design(top: Module) -> UtilizationReport:
    """Estimate a top-level design against the paper's XC2VP20.

    The hierarchy is walked once: the total adds the child modules'
    reports to the top module's own primitives."""
    per_module = []
    luts = ffs = brams = 0
    for instance in top.instances:
        component = instance.component
        if isinstance(component, Module):
            report = estimate_area(component)
            per_module.append(report)
            luts += report.luts
            ffs += report.ffs
            brams += report.brams
        else:
            luts += component.luts()
            ffs += component.ffs()
            brams += component.brams()
    total = AreaReport(
        module=top.name,
        luts=luts,
        ffs=ffs,
        brams=brams,
        slices=pack(luts, ffs),
    )
    return UtilizationReport(device=XC2VP20, total=total, per_module=per_module)


@dataclass
class FabricAreaReport:
    """Area of a multi-bank fabric: per-bank wrappers plus the crossbar."""

    banks: list[AreaReport]
    crossbar: AreaReport
    total: AreaReport

    def render(self) -> str:
        lines = [
            f"fabric ({len(self.banks)} banks): LUT={self.total.luts} "
            f"FF={self.total.ffs} BRAM={self.total.brams} "
            f"slices={self.total.slices}"
        ]
        for report in self.banks + [self.crossbar]:
            lines.append(
                f"  {report.module:<32} LUT={report.luts:<5} "
                f"FF={report.ffs:<5} slices={report.slices}"
            )
        return "\n".join(lines)


def estimate_fabric_area(
    bank_modules: dict[str, Module],
    crossbar_module: Module,
) -> FabricAreaReport:
    """Aggregate fabric area: every bank wrapper plus the crossbar.

    The totals are the sum of the parts (the fabric adds no logic of its
    own beyond the crossbar), so area grows monotonically with the bank
    count: each extra bank contributes a whole wrapper plus a crossbar
    output column.
    """
    banks = [
        estimate_area(module) for __, module in sorted(bank_modules.items())
    ]
    crossbar = estimate_area(crossbar_module)
    parts = banks + [crossbar]
    luts = sum(r.luts for r in parts)
    ffs = sum(r.ffs for r in parts)
    total = AreaReport(
        module="fabric",
        luts=luts,
        ffs=ffs,
        brams=sum(r.brams for r in parts),
        slices=pack(luts, ffs),
    )
    return FabricAreaReport(banks=banks, crossbar=crossbar, total=total)


def overhead_fraction(wrapper: AreaReport, core_slices: int) -> float:
    """The §4 overhead metric: wrapper slices as a fraction of the
    application's core-function slices (~1000 for the IP forwarder)."""
    if core_slices <= 0:
        raise ValueError("core slice count must be positive")
    return wrapper.slices / core_slices
