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
  cycles on both kernels;
* the same forwarder across run boundaries, where the wheel must carry
  what it knows about held executors from one call to the next: wheel
  runs in ``run(5)``, ``run(13)`` and ``run(37)`` chunks (alone, and
  with one to three external ``kernel.step()`` calls after each chunk),
  a ``run(until=...)`` followed by a plain run, and compiled runs whose
  chunks alternate between the generated path and the wheel fallback
  (an observer with ``on_idle_cycles`` is assigned on every other
  chunk).  These pin the final ``cycle`` too.

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
BOUNDARY_CYCLES = 1500
BOUNDARY_RATES = (0.004, 0.02, 0.05, 0.2)
CHUNKS = (5, 13, 37)


def _counters(kernel) -> dict[str, int]:
    counters = {
        "cycles_executed": kernel.cycles_executed,
        "cycles_skipped": kernel.cycles_skipped,
    }
    if hasattr(kernel, "cycles_compiled"):
        counters["cycles_compiled"] = kernel.cycles_compiled
        counters["cycles_interpreted"] = kernel.cycles_interpreted
    return counters


def _forwarder(organization, num_banks, rate, kernel, watchdog=False):
    design = compile_design(
        forwarding_source(2), organization=organization, num_banks=num_banks
    )
    sim = build_simulation(
        design, functions=forwarding_functions(demo_table()), kernel=kernel
    )
    if watchdog:
        sim.attach_watchdog()
    generator = BernoulliTraffic(rate, seed=3)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    return sim


def _figure1(organization, num_banks, rate, kernel):
    sim = _forwarder(
        organization,
        num_banks,
        rate,
        kernel,
        watchdog=kernel == "compiled" and rate == DENSE,
    )
    sim.run(FIGURE1_CYCLES)
    return _counters(sim.kernel)


class _IdleObserver:
    """Observes nothing, but sends the compiled kernel to its wheel
    fallback, which may still skip (it has ``on_idle_cycles``)."""

    def on_cycle(self, cycle, kernel):
        pass

    def on_idle_cycles(self, first_cycle, count, kernel):
        pass


def _boundary_counters(kernel) -> dict[str, int]:
    return {"cycle": kernel.cycle, **_counters(kernel)}


def _chunked(organization, rate, chunk, steps):
    sim = _forwarder(organization, 0, rate, "wheel")
    index = 0
    while sim.kernel.cycle < BOUNDARY_CYCLES:
        sim.run(chunk)
        for __ in range(1 + index % 3 if steps else 0):
            sim.kernel.step()
        index += 1
    return _boundary_counters(sim.kernel)


def _until(organization, num_banks, rate):
    sim = _forwarder(organization, num_banks, rate, "wheel")
    sim.run(400, until=lambda kernel: kernel.cycle >= 150)
    sim.run(BOUNDARY_CYCLES)
    return _boundary_counters(sim.kernel)


def _switching(organization, num_banks, rate):
    sim = _forwarder(organization, num_banks, rate, "compiled")
    for index in range(8):
        sim.kernel.observer = _IdleObserver() if index % 2 else None
        sim.run(250)
    return _boundary_counters(sim.kernel)


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
    for organization in Organization:
        org = organization.value
        for rate in BOUNDARY_RATES:
            for chunk in CHUNKS:
                key = f"chunked/{org}/rate{rate}/run{chunk}"
                runs[key] = (_chunked, organization, rate, chunk, False)
        for rate in (SPARSE, 0.05):
            for banks in (0, 4):
                key = f"until/{org}/banks{banks}/rate{rate}"
                runs[key] = (_until, organization, banks, rate)
                key = f"switching/{org}/banks{banks}/rate{rate}"
                runs[key] = (_switching, organization, banks, rate)
    for rate in BOUNDARY_RATES:
        for chunk in CHUNKS:
            key = f"stepped/rate{rate}/run{chunk}"
            runs[key] = (_chunked, Organization.ARBITRATED, rate, chunk, True)
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
