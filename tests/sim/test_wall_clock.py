"""The ``max_wall_seconds`` livelock valve on the simulation kernels.

The in-process complement of the campaign engine's worker-kill timeout:
a run whose cycles keep executing but never finish must surface as a
structured :class:`~repro.core.errors.SimulationTimeout` instead of a
silent hang (see ``docs/campaign.md``).
"""

import pytest

from repro.core import ControllerError, Organization, SimulationTimeout
from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design

from ..conftest import FIGURE1_SOURCE


@pytest.fixture(scope="module", params=["reference", "wheel"])
def simulation(request):
    design = compile_design(
        FIGURE1_SOURCE, organization=Organization.ARBITRATED
    )
    return build_simulation(design, kernel=request.param)


class TestWallClockValve:
    def test_zero_budget_times_out_immediately(self, simulation):
        with pytest.raises(SimulationTimeout) as excinfo:
            simulation.run(10_000, max_wall_seconds=0.0)
        error = excinfo.value
        assert error.kind == "simulation-timeout"
        assert error.wall_seconds == 0.0
        assert error.cycle is not None
        assert "wall-clock" in error.describe()

    def test_timeout_is_a_controller_error(self, simulation):
        # Campaign-level triage catches ControllerError; the valve must
        # flow through the same structured channel.
        with pytest.raises(ControllerError):
            simulation.run(10_000, max_wall_seconds=0.0)

    def test_generous_budget_completes_normally(self):
        design = compile_design(
            FIGURE1_SOURCE, organization=Organization.ARBITRATED
        )
        bounded = build_simulation(design)
        unbounded = build_simulation(design)
        result = bounded.run(200, max_wall_seconds=60.0)
        baseline = unbounded.run(200)
        assert result.cycles_run == baseline.cycles_run
        assert bounded.kernel.cycle == unbounded.kernel.cycle

    def test_negative_budget_rejected(self, simulation):
        with pytest.raises(ValueError, match="max_wall_seconds"):
            simulation.run(10, max_wall_seconds=-1.0)

    def test_default_is_unbounded(self, simulation):
        simulation.run(50)  # no budget: must not raise


@pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
class TestUntilBeforeBudget:
    """Every kernel checks ``until`` before the wall-clock budget, as the
    reference does: the cycle that satisfied the predicate ended the run,
    so a budget that ran out during it has nothing left to stop."""

    def test_satisfied_until_returns_instead_of_timing_out(self, kernel):
        design = compile_design(
            FIGURE1_SOURCE, organization=Organization.ARBITRATED
        )
        sim = build_simulation(design, kernel=kernel)
        result = sim.run(10, until=lambda k: True, max_wall_seconds=0)
        assert result.cycles_run == 1

    def test_unsatisfied_until_still_times_out(self, kernel):
        design = compile_design(
            FIGURE1_SOURCE, organization=Organization.ARBITRATED
        )
        sim = build_simulation(design, kernel=kernel)
        with pytest.raises(SimulationTimeout) as excinfo:
            sim.run(10, until=lambda k: False, max_wall_seconds=0)
        assert excinfo.value.cycle == 1
