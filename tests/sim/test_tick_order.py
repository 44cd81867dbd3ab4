"""The kernel's component tick order is a stable, documented contract.

Executors tick in sorted thread-name order and controllers in sorted
controller-name order — per phase, on every kernel backend, regardless
of the insertion order of the dicts handed to the kernel.  Observer and
hook event streams are only comparable across runs (and across kernels:
``tests/differential/``) because of this; it must never regress to dict
insertion order.  See the module docstring of ``repro.sim.kernel``.
"""

from repro.sim import FastKernel, SimulationKernel


class _Stats:
    advances = 0


class RecordingExecutor:
    """Duck-typed executor that logs its phase calls."""

    def __init__(self, name, log):
        self.name = name
        self.log = log
        self.stats = _Stats()

    def phase1(self, cycle):
        self.log.append(("phase1", self.name))

    def phase2(self, results):
        self.log.append(("phase2", self.name))


class RecordingController:
    """Duck-typed controller that logs its arbitrate calls."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def arbitrate(self, cycle):
        self.log.append(("arbitrate", self.name))
        return {}

    def next_wake(self, cycle):
        return None


def scrambled(names, log, factory):
    """A dict built in deliberately unsorted insertion order."""
    ordering = sorted(names, reverse=True)
    return {name: factory(name, log) for name in ordering}


EXECUTOR_NAMES = ["zeta", "alpha", "mid"]
CONTROLLER_NAMES = ["bram9", "bram0", "bram5"]


def run_one_cycle(kernel_cls):
    log = []
    kernel = kernel_cls(
        executors=scrambled(EXECUTOR_NAMES, log, RecordingExecutor),
        controllers=scrambled(CONTROLLER_NAMES, log, RecordingController),
    )
    kernel.step()
    return log


def expected_cycle_log():
    return (
        [("phase1", name) for name in sorted(EXECUTOR_NAMES)]
        + [("arbitrate", name) for name in sorted(CONTROLLER_NAMES)]
        + [("phase2", name) for name in sorted(EXECUTOR_NAMES)]
    )


def test_reference_kernel_ticks_in_sorted_order():
    assert run_one_cycle(SimulationKernel) == expected_cycle_log()


def test_wheel_kernel_ticks_in_sorted_order():
    assert run_one_cycle(FastKernel) == expected_cycle_log()


def test_order_is_insertion_order_independent():
    """Two kernels over the same components in different insertion
    orders must produce identical tick sequences."""
    logs = []
    for ordering in (EXECUTOR_NAMES, sorted(EXECUTOR_NAMES, reverse=True)):
        log = []
        kernel = SimulationKernel(
            executors={n: RecordingExecutor(n, log) for n in ordering},
            controllers={n: RecordingController(n, log) for n in CONTROLLER_NAMES},
        )
        kernel.step()
        logs.append(log)
    assert logs[0] == logs[1]


def test_hooks_fire_around_sorted_phases():
    """Pre hooks run before any phase-1 call, post hooks after every
    phase-2 call — bracketing the sorted component order."""
    log = []
    kernel = SimulationKernel(
        executors=scrambled(EXECUTOR_NAMES, log, RecordingExecutor),
        controllers=scrambled(CONTROLLER_NAMES, log, RecordingController),
    )
    kernel.add_pre_cycle_hook(lambda c, k: log.append(("pre", c)))
    kernel.add_post_cycle_hook(lambda c, k: log.append(("post", c)))
    kernel.step()
    assert log == [("pre", 0)] + expected_cycle_log() + [("post", 0)]
