"""Slice packing model.

A Virtex-II Pro slice holds two 4-input LUTs and two flip-flops.  Perfect
packing would need ``max(ceil(LUT/2), ceil(FF/2))`` slices; real placement
pairs unrelated LUTs/FFs imperfectly (control sets, carry chains, timing-
driven spreading), which the model captures with a packing efficiency
factor.  Its value, 0.85, reflects typical ISE-era map results for
control-dominated logic like these wrappers.
"""

from __future__ import annotations

import math

#: LUTs (and FFs) per slice on Virtex-II Pro.
LUTS_PER_SLICE = 2
FFS_PER_SLICE = 2

#: Packing efficiency (fraction of slice capacity actually used).
DEFAULT_EFFICIENCY = 0.85


def pack(luts: int, ffs: int) -> int:
    """The number of slices that hold ``luts`` LUTs and ``ffs`` FFs.

    LUT-FF pairs sharing a slice are the common case (a LUT followed by its
    output register), so the slice count is driven by the larger of the two
    populations, inflated by the packing efficiency.
    """
    if luts < 0 or ffs < 0:
        raise ValueError("resource counts cannot be negative")
    if luts == 0 and ffs == 0:
        return 0
    lut_slices = luts / LUTS_PER_SLICE
    ff_slices = ffs / FFS_PER_SLICE
    slices = int(math.ceil(max(lut_slices, ff_slices) / DEFAULT_EFFICIENCY))
    return max(1, slices)
