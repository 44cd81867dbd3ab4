"""Blocked-view golden: what every controller reports as blocked, cycle
by cycle, and every watchdog event that reading drives.

``MemoryController.blocked`` (the requests the last ``arbitrate`` left
ungranted, in sort order, with their issue and blocked cycles) and
``blocked_by_client`` (one request per client, replaced only when the
blocked key set changes) are what the watchdog, the tracer and the
profiler read.  ``golden/blocked_view.json`` pins them:

* per kernel, one sha256 over every read of ``blocked`` (each
  request's key, data and dep_id, its issue and blocked cycles, in list
  order) and one over whether ``blocked_by_client`` was replaced since
  the previous read, for the controllers in name order.  The reads
  come from three runs: a post-cycle hook (``after``); a pre-cycle hook
  (``before``), whose first read after a skip sees the list of the last
  executed cycle, still aged at that cycle; and no hook, reading after
  every ``run(37)`` chunk (``chunks``), so the compiled kernel's
  span-exit flush is pinned too.  Both hooks' ``next_wake`` returns
  ``None``, so the wheel keeps skipping; on the compiled kernel a hook
  selects the wheel escape hatch.  Chunk reads see the final cycle of
  each chunk, which every kernel executes, so their blocked lists agree
  across kernels;
* the runs: ``forwarding_source(2)`` under every organization, on one
  BRAM and on a four-bank fabric, at a sparse and a dense packet rate,
  and the four catalogued scenarios, guarded and FIFO;
* every watchdog event, degradation and error of
  ``CampaignConfig(seed=1, runs=6, cycles=400)`` under each recovery
  policy, which must come out of every kernel.

To regenerate after an *intentional* change to what controllers report
as blocked or to when the watchdog fires::

    PYTHONPATH=src python tests/sim/test_blocked_view.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import Organization
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.watchdog import RecoveryPolicy
from repro.flow import SIMULATION_KERNELS, build_simulation, compile_design
from repro.net import (
    BernoulliTraffic,
    demo_table,
    forwarding_functions,
    forwarding_source,
)
from repro.scenarios import catalog

GOLDEN = Path(__file__).parent / "golden" / "blocked_view.json"

FIGURE1_CYCLES = 2000
SCENARIO_CYCLES = 1500
CHUNK = 37
RATES = (0.004, 0.9)


class _ViewRecorder:
    """Reads every controller's blocked view; usable as a pre- or
    post-cycle hook that never wakes the wheel on its own."""

    def __init__(self, controllers):
        self.controllers = sorted(controllers.items())
        self.views = {
            name: controller.blocked_by_client
            for name, controller in self.controllers
        }
        self.blocked = []
        self.replaced = []

    def read(self, cycle):
        blocked = [cycle]
        replaced = [cycle]
        for name, controller in self.controllers:
            view = controller.blocked_by_client
            replaced.append(view is not self.views[name])
            self.views[name] = view
            blocked.append(
                [
                    [
                        *item.request.key,
                        item.request.data,
                        item.request.dep_id,
                        item.issue_cycle,
                        item.blocked_cycles,
                    ]
                    for item in controller.blocked
                ]
            )
        self.blocked.append(blocked)
        self.replaced.append(replaced)

    def __call__(self, cycle, kernel):
        self.read(cycle)

    def next_wake(self, cycle, limit, kernel):
        return None

    def digest(self) -> dict:
        return {
            "reads": len(self.blocked),
            "blocked": _sha(self.blocked),
            "replaced": _sha(self.replaced),
        }


def _sha(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _figure1_sim(organization, banks, rate, kernel):
    design = compile_design(
        forwarding_source(2), organization=organization, num_banks=banks
    )
    sim = build_simulation(
        design, functions=forwarding_functions(demo_table()), kernel=kernel
    )
    generator = BernoulliTraffic(rate, seed=3)
    sim.kernel.add_pre_cycle_hook(generator.attach(sim.rx["eth_in"]))
    return sim


def _scenario_sim(name, synthesis, kernel):
    __, sim = catalog.build_scenario_simulation(
        catalog.get_scenario(name), channel_synthesis=synthesis, kernel=kernel
    )
    return sim


def _hooked(build, args, cycles, where) -> dict:
    sim = build(*args)
    recorder = _ViewRecorder(sim.controllers)
    getattr(sim.kernel, f"add_{where}_cycle_hook")(recorder)
    sim.run(cycles)
    return recorder.digest()


def _views(build, args, cycles) -> dict:
    before = _hooked(build, args, cycles, "pre")
    after = _hooked(build, args, cycles, "post")
    sim = build(*args)
    recorder = _ViewRecorder(sim.controllers)
    done = 0
    while done < cycles:
        step = min(CHUNK, cycles - done)
        sim.run(step)
        done += step
        recorder.read(sim.kernel.cycle)
    return {"before": before, "after": after, "chunks": recorder.digest()}


def _runs() -> dict:
    runs = {}
    for kernel in SIMULATION_KERNELS:
        for organization in Organization:
            for banks in (0, 4):
                for rate in RATES:
                    key = (
                        f"figure1/{organization.value}/banks{banks}/"
                        f"rate{rate}/{kernel}"
                    )
                    runs[key] = (
                        _figure1_sim,
                        (organization, banks, rate, kernel),
                        FIGURE1_CYCLES,
                    )
        for name in catalog.SCENARIO_NAMES:
            for synthesis in ("guarded", "fifo"):
                key = f"scenario/{name}/{synthesis}/{kernel}"
                runs[key] = (
                    _scenario_sim,
                    (name, synthesis, kernel),
                    SCENARIO_CYCLES,
                )
    return runs


RUNS = _runs()
POLICIES = tuple(policy.value for policy in RecoveryPolicy)


def _watchdog_events(policy: str, kernel: str) -> dict:
    config = CampaignConfig(seed=1, runs=6, cycles=400, policy=policy)
    report = run_campaign(config, kernel=kernel)
    return {
        f"{outcome.organization}#{outcome.index}": {
            "events": list(outcome.watchdog_events),
            "degradations": list(outcome.degradations),
            "error": outcome.error,
        }
        for outcome in report.outcomes
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_run(golden):
    assert sorted(golden["views"]) == sorted(RUNS)
    assert sorted(golden["watchdog"]) == sorted(POLICIES)


def test_chunk_reads_agree_across_kernels(golden):
    """Every kernel executes the final cycle of each chunk, so the
    blocked lists read between chunks are the same on all three.
    (Whether ``blocked_by_client`` was replaced is not: a generated
    span compares key sets once, at its exit flush.)"""
    for key in golden["views"]:
        if key.endswith("/reference"):
            stem = key[: -len("reference")]
            chunks = {
                golden["views"][stem + kernel]["chunks"]["blocked"]
                for kernel in SIMULATION_KERNELS
            }
            assert len(chunks) == 1, stem


def test_watchdog_fires_somewhere_under_every_policy(golden):
    for policy in POLICIES:
        runs = golden["watchdog"][policy].values()
        assert any(run["events"] for run in runs), policy


@pytest.mark.parametrize("run", sorted(RUNS))
def test_blocked_view_matches_golden(run, golden):
    build, args, cycles = RUNS[run]
    assert _views(build, args, cycles) == golden["views"][run]


@pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
@pytest.mark.parametrize("policy", POLICIES)
def test_watchdog_events_match_golden(policy, kernel, golden):
    assert _watchdog_events(policy, kernel) == golden["watchdog"][policy]


def main() -> None:
    views = {
        run: _views(build, args, cycles)
        for run, (build, args, cycles) in RUNS.items()
    }
    watchdog = {policy: _watchdog_events(policy, "wheel") for policy in POLICIES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({"views": views, "watchdog": watchdog}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
