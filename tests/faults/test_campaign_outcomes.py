"""Campaign outcome golden: every fault run's verdict, frozen by digest.

``golden/campaign_outcomes.json`` holds, for each fault kind and seed
1-3, a campaign of ``CampaignConfig(seed, runs=6, cycles=400,
fault_kinds=(kind,))`` over both organizations:

* the sha256 of every run's ``RunOutcome.to_json()`` (classification,
  faults, watchdog events, degradations, cycles run, error);
* the sha256 of the rendered report.

It also holds the sha256 of one profiled campaign's
``campaign_summary_dict`` (all kinds, seed 1) without its ``engine``
key, which is execution telemetry, not a result.

Every kernel is cycle-equivalent, so the same digests must come out of
the default kernel for every seed and of all three kernels for seed 1.
A change to how campaigns execute (what they skip, what they compile
and when) must reproduce all of them.

To regenerate after an *intentional* change to campaign results::

    PYTHONPATH=src python tests/faults/test_campaign_outcomes.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults.campaign import (
    CampaignConfig,
    campaign_summary_dict,
    run_campaign,
)
from repro.faults.models import FAULT_KINDS
from repro.flow import DEFAULT_KERNEL, SIMULATION_KERNELS

GOLDEN = Path(__file__).parent / "golden" / "campaign_outcomes.json"

SEEDS = (1, 2, 3)
RUNS = 6
CYCLES = 400
PROFILED_SEED = 1


def _sha(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _campaign(kind: str, seed: int, kernel: str) -> dict:
    config = CampaignConfig(
        seed=seed, runs=RUNS, cycles=CYCLES, fault_kinds=(kind,)
    )
    report = run_campaign(config, kernel=kernel)
    return {
        "report": _sha(report.render()),
        "outcomes": {
            f"{outcome.organization}#{outcome.index}": _sha(outcome.to_json())
            for outcome in report.outcomes
        },
    }


def _profiled(kernel: str) -> str:
    config = CampaignConfig(
        seed=PROFILED_SEED, runs=RUNS, cycles=CYCLES, profile=True
    )
    summary = campaign_summary_dict(run_campaign(config, kernel=kernel))
    del summary["engine"]
    return _sha(summary)


def _key(kind: str, seed: int) -> str:
    return f"{kind}/seed{seed}"


CASES = [
    (kernel, kind, seed)
    for kind in FAULT_KINDS
    for seed in SEEDS
    for kernel in (
        SIMULATION_KERNELS if seed == PROFILED_SEED else (DEFAULT_KERNEL,)
    )
]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_campaign(golden):
    assert sorted(golden["campaigns"]) == sorted(
        _key(kind, seed) for kind in FAULT_KINDS for seed in SEEDS
    )
    for entry in golden["campaigns"].values():
        assert len(entry["outcomes"]) == 2 * RUNS


@pytest.mark.parametrize(
    "kernel,kind,seed", CASES, ids=[f"{k}-{f}-seed{s}" for k, f, s in CASES]
)
def test_campaign_matches_golden(kernel, kind, seed, golden):
    assert _campaign(kind, seed, kernel) == golden["campaigns"][_key(kind, seed)]


@pytest.mark.parametrize("kernel", SIMULATION_KERNELS)
def test_profiled_summary_matches_golden(kernel, golden):
    assert _profiled(kernel) == golden["profiled_summary"]


def main() -> None:
    golden = {
        "campaigns": {
            _key(kind, seed): _campaign(kind, seed, DEFAULT_KERNEL)
            for kind in FAULT_KINDS
            for seed in SEEDS
        },
        "profiled_summary": _profiled(DEFAULT_KERNEL),
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
