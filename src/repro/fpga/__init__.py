"""FPGA device models and estimation (the ISE substitute).

* :mod:`~repro.fpga.device` — Virtex-II Pro family table and fabric
  timing constants (the paper's XC2VP20 target);
* :mod:`~repro.fpga.packing` — LUT/FF to slice packing;
* :mod:`~repro.fpga.area` — area estimation over generated netlists;
* :mod:`~repro.fpga.timing` — critical-path to fmax estimation against
  the paper's 125 MHz target.
"""

from .area import (
    AreaReport,
    UtilizationReport,
    estimate_area,
    estimate_design,
    overhead_fraction,
)
from .device import (
    VIRTEX2PRO_FAMILY,
    XC2VP20,
    Device,
    FabricTiming,
    device,
)
from .packing import (
    DEFAULT_EFFICIENCY,
    FFS_PER_SLICE,
    LUTS_PER_SLICE,
    pack,
)
from .timing import (
    PAPER_TARGET_MHZ,
    TimingReport,
    estimate_timing,
)

__all__ = [
    "AreaReport",
    "UtilizationReport",
    "estimate_area",
    "estimate_design",
    "overhead_fraction",
    "VIRTEX2PRO_FAMILY",
    "XC2VP20",
    "Device",
    "FabricTiming",
    "device",
    "DEFAULT_EFFICIENCY",
    "FFS_PER_SLICE",
    "LUTS_PER_SLICE",
    "pack",
    "PAPER_TARGET_MHZ",
    "TimingReport",
    "estimate_timing",
]
