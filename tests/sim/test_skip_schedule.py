"""Skip-schedule golden: exactly which cycles the fast kernels execute.

Cycle equivalence (``tests/differential/``) proves the wheel and
compiled kernels compute the same values as the reference kernel, but
not that they skip as much as they can: a wake reported too early costs
speed and nothing else.  ``golden/skip_schedule.json`` therefore pins,
for realistic runs, how many cycles each fast kernel executed and how
many it skipped (plus, on the compiled kernel, how many ran compiled
and how many interpreted):

* the Figure-1 forwarder (``forwarding_source(2)``) under every
  organization, on one BRAM and on a four-bank fabric (whose crossbar
  and routers report future wakes), at a sparse and a dense
  ``BernoulliTraffic`` rate for 6,000 cycles — on the wheel, and on the
  compiled kernel, which at the dense rate carries a watchdog so that
  its wheel escape hatch is pinned too;
* the four catalogued scenarios, guarded and FIFO, profiled for 1,500
  cycles on both kernels.

To regenerate after an *intentional* change to the skip decision::

    PYTHONPATH=src python tests/sim/test_skip_schedule.py
"""

import json
from pathlib import Path

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.net import (
    BernoulliTraffic,
    demo_table,
    forwarding_functions,
    forwarding_source,
)
from repro.scenarios import catalog

GOLDEN = Path(__file__).parent / "golden" / "skip_schedule.json"

FIGURE1_CYCLES = 6000
SCENARIO_CYCLES = 1500
SPARSE, DENSE = 0.004, 0.06


def _counters(kernel) -> dict[str, int]:
    counters = {
        "cycles_executed": kernel.cycles_executed,
        "cycles_skipped": kernel.cycles_skipped,
    }
    if hasattr(kernel, "cycles_compiled"):
        counters["cycles_compiled"] = kernel.cycles_compiled
        counters["cycles_interpreted"] = kernel.cycles_interpreted
    return counters


def _figure1(organization, num_banks, rate, kernel):
    design = compile_design(
        forwarding_source(2), organization=organization, num_banks=num_banks
    )
    sim = build_simulation(
        design, functions=forwarding_functions(demo_table()), kernel=kernel
    )
    if kernel == "compiled" and rate == DENSE:
        sim.attach_watchdog()
    generator = BernoulliTraffic(rate, seed=3)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    sim.run(FIGURE1_CYCLES)
    return _counters(sim.kernel)


def _scenario(name, synthesis, kernel):
    scenario = catalog.get_scenario(name)
    __, sim = catalog.build_scenario_simulation(
        scenario, channel_synthesis=synthesis, kernel=kernel
    )
    sim.attach_profiler()
    sim.run(SCENARIO_CYCLES)
    return _counters(sim.kernel)


def _runs() -> dict:
    runs = {}
    for kernel in ("wheel", "compiled"):
        for organization in Organization:
            for banks in (0, 4):
                for rate in (SPARSE, DENSE):
                    key = (
                        f"figure1/{organization.value}/banks{banks}/"
                        f"rate{rate}/{kernel}"
                    )
                    runs[key] = (_figure1, organization, banks, rate, kernel)
        for name in catalog.SCENARIO_NAMES:
            for synthesis in ("guarded", "fifo"):
                key = f"scenario/{name}/{synthesis}/{kernel}"
                runs[key] = (_scenario, name, synthesis, kernel)
    return runs


RUNS = _runs()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_skip_schedule_matches_golden(run, golden):
    build, *args = RUNS[run]
    assert build(*args) == golden[run]


def main() -> None:
    schedule = {run: build(*args) for run, (build, *args) in RUNS.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(schedule, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
