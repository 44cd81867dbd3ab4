"""Variable lifetime analysis.

This module computes, per thread, each variable's live range over the
linearized statement order.  Register binding
(:func:`repro.synth.binding.bind_thread` with ``share_registers=True``)
lets two variables share one register when their ranges do not overlap.
The memory-size analysis of the paper's section 3 is the allocator's
(:mod:`repro.memory.allocation`), over each symbol's ``storage_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hic import ast
from .usedef import analyze_thread


@dataclass(frozen=True)
class LiveRange:
    """The live range of one variable: [first event, last event] indices in
    the thread's linear statement order."""

    variable: str
    start: int
    end: int

    @property
    def span(self) -> int:
        return self.end - self.start + 1

    def overlaps(self, other: "LiveRange") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass
class ThreadLifetimes:
    """Lifetime facts for one thread."""

    thread_name: str
    ranges: dict[str, LiveRange]


def thread_lifetimes(thread: ast.Thread) -> ThreadLifetimes:
    """Compute live ranges for every variable touched by a thread.

    A variable's range starts at its first definition (or first use, for
    variables live on entry such as shared imports) and ends at its last use
    (or last definition if it is never read — a produced value whose only
    readers live in other threads stays live to the end of the thread, since
    consumers may read it at any later time).

    Round-carried variables — used at or before their first definition,
    like accumulators (``t = t + 1``) and loop counters read in a loop
    condition — live across the FSM's wrap-around to the next round, so
    their range conservatively spans the whole body.  This is what makes
    the range safe as a register-sharing oracle.
    """
    facts = analyze_thread(thread)
    names = facts.all_defs | facts.all_uses
    last_index = len(facts.statements) - 1 if facts.statements else 0
    ranges: dict[str, LiveRange] = {}
    for name in sorted(names):
        first_def = facts.first_def_index(name)
        first_use_candidates = [
            info.index for info in facts.statements if name in info.uses
        ]
        first_use = min(first_use_candidates) if first_use_candidates else None
        last_use = facts.last_use_index(name)

        start_candidates = [x for x in (first_def, first_use) if x is not None]
        start = min(start_candidates) if start_candidates else 0
        round_carried = first_use is not None and (
            first_def is None or first_use <= first_def
        )
        if round_carried:
            # Live across the wrap-around: the whole body.
            start, end = 0, last_index
        elif last_use is None:
            # Written but never read locally: externally consumed, keep live.
            end = last_index
        else:
            end = last_use
            last_def_indices = [
                info.index for info in facts.statements if name in info.defs
            ]
            if last_def_indices:
                end = max(end, max(last_def_indices))
        ranges[name] = LiveRange(name, start, end)
    return ThreadLifetimes(thread.name, ranges)
