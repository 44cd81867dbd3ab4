"""Wait-classification golden: how every memory organization attributes
a stalled cycle, on every simulation kernel.

Each controller answers the profiler's ``classify_wait`` from its own
grant rule.  ``golden/wait_classification.json`` pins, per run, the
sha256 of ``breakdown_dict(profiler)`` (sorted-key JSON) and of every
thread's ``profiler.timeline(thread)``, plus the breakdown's per-state
totals (so a reader sees which wait states a run exercises):

* ``forwarding_source(2)`` under every organization, on one BRAM and on
  a four-bank fabric, with ``BernoulliTraffic(rate, seed=3)`` at a
  sparse and a dense rate, 2,000 cycles;
* the four catalogued scenarios, 1,500 cycles: arbitrated with guarded
  and with FIFO channels, and guarded under the event-driven and the
  lock-baseline organizations;
* ``BIG_ARRAY`` (``tests/memory/test_offchip.py``) spilled off chip,
  400 cycles.

Every kernel must reproduce the same digests.

To regenerate after an *intentional* change to a grant rule or to cycle
attribution::

    PYTHONPATH=src python -m tests.obs.test_wait_classification
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import Organization
from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.net import (
    BernoulliTraffic,
    demo_table,
    forwarding_functions,
    forwarding_source,
)
from repro.obs import breakdown_dict
from repro.scenarios import catalog
from tests.memory.test_offchip import BIG_ARRAY

GOLDEN = Path(__file__).parent / "golden" / "wait_classification.json"

FIGURE1_CYCLES = 2000
SCENARIO_CYCLES = 1500
OFFCHIP_CYCLES = 400
RATES = (0.004, 0.9)
SCENARIO_VARIANTS = (
    ("guarded", Organization.ARBITRATED),
    ("fifo", Organization.ARBITRATED),
    ("guarded", Organization.EVENT_DRIVEN),
    ("guarded", Organization.LOCK_BASELINE),
)


def _figure1(organization, banks, rate, kernel):
    design = compile_design(
        forwarding_source(2), organization=organization, num_banks=banks
    )
    sim = build_simulation(
        design, functions=forwarding_functions(demo_table()), kernel=kernel
    )
    profiler = sim.attach_profiler()
    generator = BernoulliTraffic(rate, seed=3)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    sim.run(FIGURE1_CYCLES)
    return profiler


def _scenario(name, synthesis, organization, kernel):
    __, sim = catalog.build_scenario_simulation(
        catalog.get_scenario(name),
        channel_synthesis=synthesis,
        organization=organization,
        kernel=kernel,
    )
    profiler = sim.attach_profiler()
    sim.run(SCENARIO_CYCLES)
    return profiler


def _offchip(kernel):
    design = compile_design(BIG_ARRAY, allow_offchip=True)
    sim = build_simulation(design, kernel=kernel)
    profiler = sim.attach_profiler()
    sim.run(OFFCHIP_CYCLES)
    return profiler


def _runs() -> dict:
    runs = {}
    for organization in Organization:
        for banks in (0, 4):
            for rate in RATES:
                key = f"figure1/{organization.value}/banks{banks}/rate{rate}"
                runs[key] = (_figure1, (organization, banks, rate))
    for name in catalog.SCENARIO_NAMES:
        for synthesis, organization in SCENARIO_VARIANTS:
            key = f"scenario/{name}/{synthesis}/{organization.value}"
            runs[key] = (_scenario, (name, synthesis, organization))
    runs["offchip/big-array"] = (_offchip, ())
    return runs


RUNS = _runs()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def classification_digests(profiler) -> dict:
    """sha256 of the breakdown and of each thread's timeline, plus the
    breakdown's per-state totals."""
    breakdown = breakdown_dict(profiler)
    timelines = {}
    for thread in sorted(breakdown["threads"]):
        segments = [
            [s.state, s.site, s.port, s.start, s.length]
            for s in profiler.timeline(thread)
        ]
        timelines[thread] = _sha(json.dumps(segments, separators=(",", ":")))
    return {
        "breakdown": _sha(json.dumps(breakdown, sort_keys=True)),
        "timelines": timelines,
        "states": {
            state: count for state, count in breakdown["states"].items() if count
        },
    }


def _digests(run: str, kernel: str) -> dict:
    build, args = RUNS[run]
    return classification_digests(build(*args, kernel))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


def _booked(golden, *parts) -> set:
    """Every wait state booked by the runs whose key has all ``parts``."""
    booked = set()
    for run, digests in golden.items():
        if all(part in run.split("/") for part in parts):
            booked |= set(digests["states"])
    return booked


@pytest.mark.parametrize("organization", [o.value for o in Organization])
def test_every_organization_books_each_of_its_answers(organization, golden):
    """The runs reach each organization's distinct answers, so a rule
    that swaps or drops one changes some digest."""
    assert {"guard-stall", "blocked-read", "arbitration-loss"} <= _booked(
        golden, organization
    )


def test_fifo_fabric_and_offchip_answers_are_booked(golden):
    assert {"guard-stall", "blocked-read"} <= _booked(golden, "fifo")
    assert "crossbar-transit" in _booked(golden, "banks4")
    assert "offchip-latency" in _booked(golden, "offchip")


@pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
@pytest.mark.parametrize("run", sorted(RUNS))
def test_wait_classification_matches_golden(run, kernel, golden):
    assert _digests(run, kernel) == golden[run]


def main() -> None:
    digests = {run: _digests(run, "wheel") for run in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
