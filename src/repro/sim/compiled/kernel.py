"""The compiled simulation kernel: generated fast path + wheel escape.

:class:`CompiledKernel` is a drop-in :class:`~repro.sim.wheel.FastKernel`
whose ``run`` executes the design's generated tick function
(:mod:`.codegen`) for whole spans of cycles, falling back to the
wheel kernel — its base class, unchanged, which still skips
provably idle stretches — whenever byte-equivalence cannot be
guaranteed cheaply:

* an observer (telemetry/profiler), post-cycle hook (watchdog, probes)
  or controller tap/observer is attached — those seams see *intra*-cycle
  state the flattened code does not materialize;
* a pre-cycle hook is not marked ``mutates_only_rx`` (the traffic
  injector is; a fault injector is not);
* ``run`` is called with an ``until`` predicate (evaluated per cycle);
* the design uses a construct codegen rejects (generation is retried,
  and refused again, on every build), or binding the generated module
  to the live objects failed a drift assertion.

The escape hatch is per-*call*: assigning an observer sends the next
``run`` to the wheel, clearing it sends the one after back to the
generated path — state is shared because the generated span flushes
everything back into the real executor and controller objects on exit
(including on exceptions).  The wheel keeps no executor state of its
own, only the advance counters it read last; it re-reads them after
each span, so its first skip decision after one compares against the
span's final state.

``cycles_compiled`` / ``cycles_interpreted`` count where cycles actually
ran, so tests can assert the fast path really was taken (differential
coverage that silently falling back would otherwise fake).  The wheel
counts the rest: ``cycles_interpreted`` is its executed plus skipped
cycles.

Set ``REPRO_COMPILED_STRICT=1`` to turn silent fallbacks on bind
failures into hard errors (debugging aid for codegen work).
"""

from __future__ import annotations

import os

from ..wheel import FastKernel
from .cache import compile_program
from .codegen import UnsupportedDesign


def _controller_untapped(controller) -> bool:
    """No seam on this controller (or, for a fabric, any of its banks)
    observes intra-cycle state the generated code skips."""
    if controller.request_taps:
        return False
    if controller.observer is not None or controller.submit_observer is not None:
        return False
    banks = getattr(controller, "banks", None)
    if banks is not None:
        return all(_controller_untapped(bank) for bank in banks.values())
    return True


class CompiledKernel(FastKernel):
    """Runs the generated per-design tick function when it is safe to,
    and the wheel kernel otherwise."""

    def __init__(self, executors, controllers, design=None):
        super().__init__(executors, controllers)
        self.design = design
        self.program = None
        self.bind_error: str | None = None
        self._run_span = None
        #: cycles the generated fast path ran (observability + tests)
        self.cycles_compiled = 0
        if design is None:
            return
        try:
            self.program = compile_program(design)
        except UnsupportedDesign as exc:
            self.bind_error = str(exc)
            return
        try:
            self._run_span = self.program.bind(self)
        except Exception as exc:  # drift between codegen and runtime
            if os.environ.get("REPRO_COMPILED_STRICT"):
                raise
            self.bind_error = f"{type(exc).__name__}: {exc}"

    @property
    def cycles_interpreted(self) -> int:
        """Cycles the wheel escape hatch ran, executed or skipped."""
        return self.cycles_executed + self.cycles_skipped

    # -- fast-path eligibility --------------------------------------------------------

    def _fast_path_ok(self) -> bool:
        if self._run_span is None:
            return False
        if self.observer is not None or self._post_hooks:
            return False
        for hook in self._pre_hooks:
            if not getattr(hook, "mutates_only_rx", False):
                return False
        return all(
            _controller_untapped(controller)
            for controller in self.controllers.values()
        )

    # -- kernel protocol ---------------------------------------------------------------

    def run(self, cycles, until=None, max_wall_seconds=None):
        if cycles > 0 and until is None and self._fast_path_ok():
            deadline = self._deadline(max_wall_seconds)
            start = self.cycle
            try:
                self._run_span(
                    self, start, start + cycles, deadline, max_wall_seconds
                )
            finally:
                self.cycles_compiled += self.cycle - start
                self._read_advances()
            return self._result()
        return super().run(
            cycles, until=until, max_wall_seconds=max_wall_seconds
        )
